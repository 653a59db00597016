// Loopback TCP transport: the deployable form of the cluster protocol.
//
// A compact epoll reactor with non-blocking sockets, the length-prefixed
// framing of framing.h, and gathered (writev) writes. The emulated cluster
// runs on the virtual-time InProcNetwork for determinism; this transport
// exists to demonstrate (and test) that the identical byte protocol works
// over real sockets — see examples/tcp_transport_demo.cc.
//
// Zero-copy RX: each reactor owns a BufPool; connections read socket
// bytes straight into pooled slabs and dispatch complete frames as
// Payload views (run-to-completion: every frame a recv burst produced is
// handled before the next syscall). TX is the mirror image: send_framed
// takes an owned, already-framed buffer, and fully-written buffers are
// recycled to the thread-local freelist by flush().
//
// Write coalescing: send() only queues the framed message and marks the
// connection dirty; the reactor gathers every frame queued on a connection
// during a poll round into one writev() call (bounded by a flush budget),
// so N sub-query replies cost one syscall instead of N. Connections whose
// sockets push back (EAGAIN) fall back to EPOLLOUT-driven flushing, same
// as before.
//
// Cross-thread wakeup: notify() is the only thread-safe entry point. The
// eventfd write is elided unless the poller is actually parked inside
// epoll_pwait2 (the `sleeping_` flag), so the common case — posting work to
// a busy reactor — costs one atomic load instead of a syscall.
//
// §4.8.4 discusses TCP's min-RTO head-of-line blocking for small queries;
// on loopback the kernel path is loss-free, so the demo focuses on framing
// and concurrency correctness rather than retransmission behaviour.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/framing.h"

namespace roar::net {

class TcpReactor;

// One established connection (server- or client-side).
class TcpConnection {
 public:
  using PayloadHandler = std::function<void(TcpConnection&, Payload frame)>;
  using CloseHandler = std::function<void(TcpConnection&)>;

  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  int fd() const { return fd_; }
  uint64_t id() const { return id_; }
  bool closed() const { return fd_ < 0; }

  // Queues a message, framing it here (one copy). Kept for tests and
  // callers without a pre-framed buffer; the transport hot path uses
  // send_framed. The bytes leave the process at the next reactor flush
  // point (end of the current poll round), coalesced with every other
  // frame queued on this connection — unless the backlog exceeds the
  // inline-flush threshold, in which case the queue is flushed
  // immediately to bound memory.
  void send(const Bytes& payload);
  // Queues an owned, already-framed buffer ([u32 len][payload]): the
  // zero-extra-copy TX path. The buffer is recycled after it is written.
  void send_framed(Bytes framed);
  // Writes as much of the queue as the socket accepts (writev, bounded by
  // the per-call flush budget) and updates EPOLLOUT interest.
  void flush();
  void close();

  // Pending (queued, unsent) bytes — for tests and backpressure checks.
  size_t pending_bytes() const { return pending_bytes_; }

  void set_payload_handler(PayloadHandler h) { on_payload_ = std::move(h); }
  void set_close_handler(CloseHandler h) { on_close_ = std::move(h); }

 private:
  friend class TcpReactor;
  TcpConnection(TcpReactor& reactor, int fd, uint64_t id);
  void handle_readable();
  void handle_writable();
  void update_interest();

  TcpReactor& reactor_;
  int fd_;
  uint64_t id_;
  FrameDecoder decoder_;
  std::deque<Bytes> outq_;   // framed, unsent messages
  size_t out_off_ = 0;       // bytes of outq_.front() already written
  size_t pending_bytes_ = 0; // total unsent bytes across outq_
  bool dirty_ = false;       // queued for the reactor's next flush round
  PayloadHandler on_payload_;
  CloseHandler on_close_;
};

// Accepts connections on a loopback port.
class TcpListener {
 public:
  using AcceptHandler = std::function<void(TcpConnection&)>;

  // port 0 = ephemeral; query with port().
  TcpListener(TcpReactor& reactor, uint16_t port, AcceptHandler on_accept);
  ~TcpListener();
  uint16_t port() const { return port_; }

 private:
  friend class TcpReactor;
  void handle_readable();

  TcpReactor& reactor_;
  int fd_;
  uint16_t port_;
  AcceptHandler on_accept_;
};

class TcpReactor {
 public:
  TcpReactor();
  ~TcpReactor();
  TcpReactor(const TcpReactor&) = delete;
  TcpReactor& operator=(const TcpReactor&) = delete;

  // Connects to 127.0.0.1:port (non-blocking connect completed by the
  // reactor). Returns the connection, owned by the reactor.
  TcpConnection& connect(uint16_t port);

  // Processes ready events; returns number handled. Waits at most
  // `timeout_us` microseconds (epoll_pwait2); timeout_us = 0 polls.
  // Dirty connections are flushed before blocking and again after the
  // event batch, so frames queued between polls or by handlers leave in
  // the same round. `has_work` (optional) is consulted after the sleeping
  // flag is raised and before blocking: when it reports pending
  // cross-thread work the wait degrades to a poll, closing the race
  // against producers that skipped the eventfd.
  size_t poll(int64_t timeout_us, const std::function<bool()>& has_work = {});
  // Polls until `pred` returns true or `max_ms` elapses. Returns pred().
  bool poll_until(const std::function<bool()>& pred, int max_ms = 5000);

  // Flushes every connection with queued frames (one writev each).
  void flush_dirty();

  // Thread-safe: makes a concurrent (or future) poll() return promptly.
  // Writes the eventfd only when the poller is parked in epoll_pwait2.
  void notify();

  // RX slab arena for this reactor's connections.
  BufPool& buf_pool() { return buf_pool_; }

  // Gathered-write accounting: total writev/send syscalls issued and
  // total frames they carried (frames_flushed / flush_syscalls > 1 means
  // coalescing is happening). Thread-safe reads.
  uint64_t flush_syscalls() const {
    return flush_syscalls_.load(std::memory_order_relaxed);
  }
  uint64_t frames_flushed() const {
    return frames_flushed_.load(std::memory_order_relaxed);
  }
  // notify() calls that skipped the eventfd because the poller was awake.
  uint64_t wakeups_elided() const {
    return wakeups_elided_.load(std::memory_order_relaxed);
  }

  const std::unordered_map<uint64_t, std::unique_ptr<TcpConnection>>&
  connections() const {
    return conns_;
  }

 private:
  friend class TcpConnection;
  friend class TcpListener;
  void add_fd(int fd, uint32_t events, void* tag);
  void mod_fd(int fd, uint32_t events, void* tag);
  void del_fd(int fd);
  TcpConnection& adopt(int fd);
  void destroy(TcpConnection& c);
  void mark_dirty(TcpConnection& c);

  int epoll_fd_;
  int wake_fd_;  // eventfd: cross-thread poll wakeup (sleep fallback)
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<TcpConnection>> conns_;
  std::vector<TcpListener*> listeners_;
  std::vector<uint64_t> doomed_;  // connections to destroy after poll
  std::vector<uint64_t> dirty_;   // connections with frames to flush
  BufPool buf_pool_;
  std::atomic<bool> sleeping_{false};  // poller parked in epoll_pwait2
  std::atomic<uint64_t> flush_syscalls_{0};
  std::atomic<uint64_t> frames_flushed_{0};
  std::atomic<uint64_t> wakeups_elided_{0};
};

}  // namespace roar::net
