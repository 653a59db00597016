#include "net/tcp_transport.h"

#include <cmath>
#include <cstring>
#include <future>

#include "common/logging.h"

namespace roar::net {

// -------------------------------------------------------------- WallClock

uint64_t WallClock::schedule_after(double delay, Callback fn) {
  uint64_t id = next_id_++;
  queue_.push(Entry{now() + std::max(0.0, delay), next_seq_++, id});
  callbacks_.emplace(id, std::move(fn));
  return id;
}

void WallClock::cancel(uint64_t id) { callbacks_.erase(id); }

int WallClock::next_timeout_ms(int cap_ms) const {
  if (callbacks_.empty()) return cap_ms;
  // The heap top may be a cancelled entry; treating it as live only makes
  // the poll wake early, never late. Round up: truncating would ask epoll
  // for a 0 ms wait during the final sub-millisecond before each firing,
  // degenerating run_until into a busy spin.
  double dt = queue_.empty() ? 0.0 : queue_.top().when - now();
  int ms = static_cast<int>(std::ceil(dt * 1000.0));
  return std::clamp(ms, 0, cap_ms);
}

size_t WallClock::fire_due() {
  size_t fired = 0;
  // `now()` is re-read each iteration so timers scheduled by a firing
  // callback for a past/zero delay run in the same batch (matching
  // EventLoop's run-everything-due semantics).
  while (!queue_.empty() && queue_.top().when <= now()) {
    Entry e = queue_.top();
    queue_.pop();
    auto it = callbacks_.find(e.id);
    if (it == callbacks_.end()) continue;  // cancelled
    Callback fn = std::move(it->second);
    callbacks_.erase(it);
    fn();
    ++fired;
  }
  return fired;
}

// ---------------------------------------------------------------- Mailbox

void Mailbox::push(std::function<void()> fn) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(fn));
  }
  // seq_cst, and strictly after the closure is enqueued: pairs with the
  // poller's sleeping-flag store so either this producer sees the poller
  // parked (and writes the eventfd) or the poller sees pending() > 0.
  pending_.fetch_add(1, std::memory_order_seq_cst);
}

size_t Mailbox::drain(std::vector<std::function<void()>>& out) {
  out.clear();  // outside the lock: a closure's destructor may push
  {
    std::lock_guard lock(mu_);
    out.swap(queue_);
  }
  size_t n = out.size();
  if (n > 0) pending_.fetch_sub(n, std::memory_order_seq_cst);
  return n;
}

// -------------------------------------------------------------- TcpDriver

TcpDriver::TcpDriver(size_t shards) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

TcpDriver::~TcpDriver() { stop(); }

void TcpDriver::add_route(Address addr, uint16_t port,
                          const std::string& host) {
  (void)host;  // loopback-only build; see header
  std::lock_guard lock(routes_mu_);
  routes_[addr] = port;
}

void TcpDriver::remove_route(Address addr) {
  std::lock_guard lock(routes_mu_);
  routes_.erase(addr);
}

std::optional<uint16_t> TcpDriver::route(Address addr) const {
  std::lock_guard lock(routes_mu_);
  auto it = routes_.find(addr);
  if (it == routes_.end()) return std::nullopt;
  return it->second;
}

void TcpDriver::post_to(size_t shard, std::function<void()> fn) {
  Shard& sh = *shards_[shard];
  sh.mail.push(std::move(fn));
  sh.reactor.notify();
}

void TcpDriver::run_on(size_t shard, std::function<void()> fn) {
  Shard& sh = *shards_[shard];
  // Inline when the shard has no loop thread (shard 0, or not started:
  // the caller is then the only thread allowed to touch it) or when we
  // are already on that thread (posting would deadlock the wait).
  if (!sh.thread.joinable() ||
      std::this_thread::get_id() == sh.thread.get_id()) {
    fn();
    return;
  }
  std::promise<void> done;
  auto fut = done.get_future();
  post_to(shard, [&fn, &done] {
    try {
      fn();
    } catch (...) {
      done.set_exception(std::current_exception());
      return;
    }
    done.set_value();
  });
  fut.get();
}

void TcpDriver::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  for (size_t i = 1; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    sh.stop.store(false, std::memory_order_relaxed);
    sh.thread = std::thread([this, &sh] { shard_loop(sh); });
  }
}

void TcpDriver::stop() {
  for (size_t i = 1; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    sh.stop.store(true, std::memory_order_release);
    sh.reactor.notify();
  }
  for (size_t i = 1; i < shards_.size(); ++i) {
    if (shards_[i]->thread.joinable()) shards_[i]->thread.join();
  }
  started_.store(false, std::memory_order_release);
}

size_t TcpDriver::poll_shard(Shard& sh, int max_wait_ms) {
  int wait_ms =
      sh.mail.pending() > 0 ? 0 : sh.clock.next_timeout_ms(max_wait_ms);
  size_t handled =
      sh.reactor.poll(wait_ms, [&sh] { return sh.mail.pending() > 0; });
  handled += sh.clock.fire_due();
  sh.mail.drain(sh.scratch);
  for (auto& fn : sh.scratch) fn();
  handled += sh.scratch.size();
  // Timers and posted completions send frames too; flush them in the same
  // round so a reply never waits out the next epoll timeout.
  sh.reactor.flush_dirty();
  return handled;
}

void TcpDriver::shard_loop(Shard& sh) {
  while (!sh.stop.load(std::memory_order_acquire)) {
    poll_shard(sh, 10);
  }
  // Final non-blocking round so closures posted just before the stop flag
  // was raised still run and the frames they queued are flushed.
  poll_shard(sh, 0);
}

size_t TcpDriver::poll(int max_wait_ms) {
  return poll_shard(*shards_[0], max_wait_ms);
}

bool TcpDriver::run_until(const std::function<bool()>& pred,
                          double timeout_s) {
  WallClock& clock = shards_[0]->clock;
  double deadline = clock.now() + timeout_s;
  while (!pred()) {
    poll(5);
    if (clock.now() > deadline) return pred();
  }
  return true;
}

uint64_t TcpDriver::wakeups_elided() const {
  uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->reactor.wakeups_elided();
  return total;
}

void TcpDriver::register_metrics(MetricsRegistry& reg,
                                 const std::string& prefix) {
  reg.gauge_fn(prefix + ".wakeups_elided", [this] {
    return static_cast<double>(wakeups_elided());
  });
  reg.gauge_fn(prefix + ".flush_syscalls", [this] {
    uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->reactor.flush_syscalls();
    return static_cast<double>(n);
  });
  reg.gauge_fn(prefix + ".frames_flushed", [this] {
    uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->reactor.frames_flushed();
    return static_cast<double>(n);
  });
}

// ----------------------------------------------------------- TcpTransport

namespace {
constexpr size_t kEnvelopeBytes = 8;  // u32 from + u32 to
constexpr size_t kFrameHeaderBytes = 4;

void append_u32(Bytes& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}
}  // namespace

TcpTransport::TcpTransport(TcpDriver& driver, size_t shard)
    : driver_(driver),
      shard_(shard),
      listener_(std::make_unique<TcpListener>(
          driver.reactor(shard), 0, [this](TcpConnection& conn) {
            inbound_[conn.id()] = &conn;
            conn.set_payload_handler([this](TcpConnection&, Payload frame) {
              on_incoming_frame(std::move(frame));
            });
            conn.set_close_handler(
                [this](TcpConnection& c) { inbound_.erase(c.id()); });
          })) {}

TcpTransport::~TcpTransport() {
  // Close both directions: the outgoing cache AND accepted connections,
  // whose handlers capture `this` — leaving them registered in the shared
  // reactor would be a use-after-free on the next peer frame.
  for (auto& [port, conn] : conns_) {
    if (conn) {
      conn->set_close_handler(nullptr);
      conn->close();
    }
  }
  auto inbound = std::move(inbound_);
  for (auto& [id, conn] : inbound) {
    if (conn) {
      conn->set_close_handler(nullptr);
      conn->set_payload_handler(nullptr);
      conn->close();
    }
  }
}

uint16_t TcpTransport::port() const { return listener_->port(); }

void TcpTransport::bind(Address addr, Handler handler) {
  handlers_[addr] = std::move(handler);
  driver_.add_route(addr, port());
}

void TcpTransport::unbind(Address addr) {
  // The route stays published: the listener is still up, so peers' frames
  // arrive and are dropped here — the same silent black-hole a crashed
  // process on a live host presents, and the same accounting InProcNetwork
  // applies to dead destinations.
  handlers_.erase(addr);
}

void TcpTransport::on_incoming_frame(Payload frame) {
  Reader r(frame);
  Address from = r.u32();
  Address to = r.u32();
  if (!r.ok()) return;  // malformed envelope: drop
  auto it = handlers_.find(to);
  if (it == handlers_.end()) {
    messages_dropped_.fetch_add(1, std::memory_order_relaxed);
    bytes_dropped_.fetch_add(frame.size() - kEnvelopeBytes,
                             std::memory_order_relaxed);
    return;
  }
  // Strip the envelope in place: the handler sees the payload bytes still
  // backed by the RX slab (or spill buffer) — no copy on this path.
  frame.advance(kEnvelopeBytes);
  it->second(from, std::move(frame));
}

TcpConnection* TcpTransport::connection_to(uint16_t port) {
  auto it = conns_.find(port);
  if (it != conns_.end() && it->second && !it->second->closed()) {
    return it->second;
  }
  // A dead cached connection was already evicted by its close handler, so
  // a cache miss for a port we connected to before IS the reconnect case.
  if (!ever_connected_.insert(port).second) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  TcpConnection& conn = driver_.reactor(shard_).connect(port);
  conn.set_close_handler([this, port](TcpConnection& c) {
    auto cached = conns_.find(port);
    if (cached != conns_.end() && cached->second == &c) conns_.erase(cached);
  });
  conns_[port] = &conn;
  return &conn;
}

void TcpTransport::send(Address from, Address to, Bytes payload) {
  size_t n = payload.size();
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(n, std::memory_order_relaxed);

  auto port = driver_.route(to);
  if (!port) {
    messages_dropped_.fetch_add(1, std::memory_order_relaxed);
    bytes_dropped_.fetch_add(n, std::memory_order_relaxed);
    recycle_bytes(std::move(payload));
    return;
  }
  TcpConnection* conn = connection_to(*port);
  if (!conn || conn->closed()) {
    messages_dropped_.fetch_add(1, std::memory_order_relaxed);
    bytes_dropped_.fetch_add(n, std::memory_order_relaxed);
    recycle_bytes(std::move(payload));
    return;
  }

  // One owned buffer, written once: [u32 len][u32 from][u32 to][payload].
  // No intermediate envelope vector; the buffer is recycled to the
  // thread-local freelist by the reactor's flush once written.
  Bytes framed = acquire_bytes();
  framed.reserve(kFrameHeaderBytes + kEnvelopeBytes + n);
  append_u32(framed, static_cast<uint32_t>(kEnvelopeBytes + n));
  append_u32(framed, from);
  append_u32(framed, to);
  framed.insert(framed.end(), payload.begin(), payload.end());
  recycle_bytes(std::move(payload));
  wire_bytes_sent_.fetch_add(framed.size(), std::memory_order_relaxed);
  conn->send_framed(std::move(framed));
}

}  // namespace roar::net
