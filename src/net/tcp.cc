#include "net/tcp.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace roar::net {
namespace {

// Flush bounds. kFlushBudget caps the bytes one flush() call hands the
// kernel so a single fat connection cannot starve the rest of the round;
// kInlineFlushBytes is the queued-backlog level at which send() stops
// waiting for the round's flush point and writes immediately.
constexpr size_t kMaxIov = 64;
constexpr size_t kFlushBudget = 256 * 1024;
constexpr size_t kInlineFlushBytes = 1 << 20;
// Minimum slab tail a recv is offered; below this the decoder rolls to a
// fresh slab so reads stay in large chunks.
constexpr size_t kMinRxSpace = 2048;

void set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Tags stored in epoll data: low bit distinguishes listeners; the wake
// eventfd uses the reactor's own address (no listener or connection can
// alias it).
void* conn_tag(TcpConnection* c) { return c; }
void* listener_tag(TcpListener* l) {
  return reinterpret_cast<void*>(reinterpret_cast<uintptr_t>(l) | 1);
}
bool is_listener(void* tag) {
  return (reinterpret_cast<uintptr_t>(tag) & 1) != 0;
}
TcpListener* as_listener(void* tag) {
  return reinterpret_cast<TcpListener*>(reinterpret_cast<uintptr_t>(tag) &
                                        ~uintptr_t{1});
}

}  // namespace

// ---------------------------------------------------------- TcpConnection

TcpConnection::TcpConnection(TcpReactor& reactor, int fd, uint64_t id)
    : reactor_(reactor), fd_(fd), id_(id) {}

TcpConnection::~TcpConnection() {
  if (fd_ >= 0) {
    reactor_.del_fd(fd_);
    ::close(fd_);
  }
}

void TcpConnection::close() {
  if (fd_ < 0) return;
  reactor_.del_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  outq_.clear();
  pending_bytes_ = 0;
  if (on_close_) on_close_(*this);
  reactor_.doomed_.push_back(id_);
}

void TcpConnection::send(const Bytes& payload) {
  send_framed(frame(payload));
}

void TcpConnection::send_framed(Bytes framed) {
  if (fd_ < 0) {
    recycle_bytes(std::move(framed));
    return;
  }
  pending_bytes_ += framed.size();
  outq_.push_back(std::move(framed));
  if (pending_bytes_ >= kInlineFlushBytes) {
    flush();  // bound memory under backpressure
    return;
  }
  reactor_.mark_dirty(*this);
}

void TcpConnection::flush() {
  if (fd_ < 0) return;
  size_t written_this_call = 0;
  while (!outq_.empty() && written_this_call < kFlushBudget) {
    // Gather up to kMaxIov queued frames into one writev.
    iovec iov[kMaxIov];
    size_t n_iov = 0;
    size_t off = out_off_;
    for (const Bytes& f : outq_) {
      if (n_iov == kMaxIov) break;
      iov[n_iov].iov_base = const_cast<uint8_t*>(f.data() + off);
      iov[n_iov].iov_len = f.size() - off;
      ++n_iov;
      off = 0;
    }
    ssize_t n = ::writev(fd_, iov, static_cast<int>(n_iov));
    reactor_.flush_syscalls_.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted: retry the same gather
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close();
      return;
    }
    written_this_call += static_cast<size_t>(n);
    pending_bytes_ -= static_cast<size_t>(n);
    // Consume the written bytes frame by frame; fully-written buffers go
    // back to the thread-local freelist for the next encode.
    size_t remaining = static_cast<size_t>(n);
    while (remaining > 0) {
      size_t left_in_front = outq_.front().size() - out_off_;
      if (remaining >= left_in_front) {
        remaining -= left_in_front;
        recycle_bytes(std::move(outq_.front()));
        outq_.pop_front();
        out_off_ = 0;
        reactor_.frames_flushed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        out_off_ += remaining;
        remaining = 0;
      }
    }
  }
  update_interest();
}

void TcpConnection::handle_writable() { flush(); }

void TcpConnection::update_interest() {
  if (fd_ < 0) return;
  uint32_t ev = EPOLLIN;
  if (!outq_.empty()) ev |= EPOLLOUT;
  reactor_.mod_fd(fd_, ev, conn_tag(this));
}

void TcpConnection::handle_readable() {
  // Run-to-completion burst RX: read into the decoder's slab, then
  // dispatch every frame that burst completed before the next syscall.
  while (fd_ >= 0) {
    auto space = decoder_.rx_space(reactor_.buf_pool_, kMinRxSpace);
    ssize_t n = ::recv(fd_, space.data(), space.size(), 0);
    if (n > 0) {
      decoder_.commit(static_cast<size_t>(n));
      while (auto p = decoder_.next_view()) {
        if (on_payload_) on_payload_(*this, std::move(*p));
        if (fd_ < 0) return;  // handler closed us
      }
      if (decoder_.failed()) {
        close();
        return;
      }
      if (static_cast<size_t>(n) < space.size()) break;  // socket drained
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close();  // peer closed or error
    return;
  }
}

// ------------------------------------------------------------ TcpListener

TcpListener::TcpListener(TcpReactor& reactor, uint16_t port,
                         AcceptHandler on_accept)
    : reactor_(reactor), fd_(-1), port_(0), on_accept_(std::move(on_accept)) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("bind() failed");
  }
  if (listen(fd_, 64) != 0) {
    ::close(fd_);
    throw std::runtime_error("listen() failed");
  }
  socklen_t len = sizeof(addr);
  getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(fd_);
  reactor_.add_fd(fd_, EPOLLIN, listener_tag(this));
  reactor_.listeners_.push_back(this);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) {
    reactor_.del_fd(fd_);
    ::close(fd_);
  }
  std::erase(reactor_.listeners_, this);
}

void TcpListener::handle_readable() {
  while (true) {
    int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd < 0) break;
    set_nonblocking(cfd);
    set_nodelay(cfd);
    TcpConnection& conn = reactor_.adopt(cfd);
    if (on_accept_) on_accept_(conn);
  }
}

// ------------------------------------------------------------- TcpReactor

TcpReactor::TcpReactor()
    : epoll_fd_(epoll_create1(0)),
      wake_fd_(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
  if (wake_fd_ < 0) throw std::runtime_error("eventfd failed");
  add_fd(wake_fd_, EPOLLIN, this);
}

TcpReactor::~TcpReactor() {
  conns_.clear();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void TcpReactor::notify() {
  // seq_cst pairs with the poller's sleeping_ store before its pending
  // re-check: either we see sleeping_ and write the eventfd, or the
  // poller sees our work before parking.
  if (!sleeping_.load(std::memory_order_seq_cst)) {
    wakeups_elided_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint64_t one = 1;
  // Best-effort: if the counter is full the poller is already due to wake.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void TcpReactor::mark_dirty(TcpConnection& c) {
  if (c.dirty_) return;
  c.dirty_ = true;
  dirty_.push_back(c.id());
}

void TcpReactor::flush_dirty() {
  if (dirty_.empty()) return;
  // Swap out the list: flushing can re-dirty a connection (EAGAIN path
  // keeps bytes queued) — those get EPOLLOUT interest instead of a
  // respin here.
  std::vector<uint64_t> batch;
  batch.swap(dirty_);
  for (uint64_t id : batch) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // closed and reaped meanwhile
    TcpConnection& c = *it->second;
    c.dirty_ = false;
    if (!c.closed()) c.flush();
  }
}

void TcpReactor::add_fd(int fd, uint32_t events, void* tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = tag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void TcpReactor::mod_fd(int fd, uint32_t events, void* tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = tag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void TcpReactor::del_fd(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

TcpConnection& TcpReactor::adopt(int fd) {
  uint64_t id = next_id_++;
  auto conn = std::unique_ptr<TcpConnection>(new TcpConnection(*this, fd, id));
  TcpConnection& ref = *conn;
  conns_.emplace(id, std::move(conn));
  add_fd(fd, EPOLLIN, conn_tag(&ref));
  return ref;
}

TcpConnection& TcpReactor::connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  set_nonblocking(fd);
  set_nodelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    throw std::runtime_error("connect() failed");
  }
  return adopt(fd);
}

size_t TcpReactor::poll(int64_t timeout_us,
                        const std::function<bool()>& has_work) {
  // Frames queued since the last round (timers, posted completions, user
  // code between polls) must not wait out the epoll timeout.
  flush_dirty();
  if (timeout_us > 0) {
    sleeping_.store(true, std::memory_order_seq_cst);
    // Re-check after raising the flag: a producer that pushed before our
    // store saw sleeping_ == false and skipped the eventfd — its work
    // must degrade this wait to a poll.
    if (has_work && has_work()) timeout_us = 0;
  }
  epoll_event events[64];
  timespec wait{static_cast<time_t>(timeout_us / 1'000'000),
                static_cast<long>(timeout_us % 1'000'000 * 1000)};
  int n = epoll_pwait2(epoll_fd_, events, 64, &wait, nullptr);
  sleeping_.store(false, std::memory_order_relaxed);
  if (n < 0) {
    // A signal only cuts the wait short; anything else is a broken
    // reactor, and no other wait would do better.
    if (errno != EINTR) {
      throw std::system_error(errno, std::generic_category(), "epoll_pwait2");
    }
    n = 0;
  }
  size_t handled = 0;
  for (int i = 0; i < n; ++i) {
    void* tag = events[i].data.ptr;
    if (tag == this) {
      uint64_t drain;
      while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
      }
      ++handled;
      continue;
    }
    if (is_listener(tag)) {
      as_listener(tag)->handle_readable();
      ++handled;
      continue;
    }
    auto* conn = static_cast<TcpConnection*>(tag);
    if (conn->closed()) continue;
    if (events[i].events & (EPOLLHUP | EPOLLERR)) {
      conn->close();
      ++handled;
      continue;
    }
    if (events[i].events & EPOLLOUT) conn->handle_writable();
    if (conn->closed()) {
      ++handled;
      continue;
    }
    if (events[i].events & EPOLLIN) conn->handle_readable();
    ++handled;
  }
  // One flush point per round: everything the handlers queued goes out
  // gathered, then closed connections are reaped.
  flush_dirty();
  for (uint64_t id : doomed_) conns_.erase(id);
  doomed_.clear();
  return handled;
}

bool TcpReactor::poll_until(const std::function<bool()>& pred, int max_ms) {
  auto start = std::chrono::steady_clock::now();
  while (!pred()) {
    poll(5'000);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (elapsed > max_ms) return false;
  }
  return true;
}

void TcpReactor::destroy(TcpConnection& c) {
  conns_.erase(c.id());
}

}  // namespace roar::net
