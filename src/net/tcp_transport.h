// The deployable Transport: cluster endpoints exchanging the identical
// framed protocol bytes over real loopback TCP sockets (§4.8).
//
// Topology: every TcpTransport owns one listening socket and represents one
// "process" (a node, or the front-end + membership pair). All transports of
// a cluster share a TcpDriver, which runs N reactor shards. Each shard
// bundles an epoll reactor, a wall-clock timer heap, a BufPool RX arena
// and a Mailbox of cross-thread closures. Shard 0 is caller-driven —
// poll()/run_until() execute it on the calling thread, exactly the
// single-threaded behaviour a one-shard driver has always had; shards
// 1..N-1 each run their own thread after start().
//
// Sharding model: a transport is pinned to one shard at construction
// (per-node connection pinning — its listener, accepted sockets, outgoing
// sockets, timers and handlers all live on that shard). Cross-shard
// traffic flows over the sockets themselves, so no data structure is
// shared between shards except the route registry and the mailboxes
// (each behind a mutex). The threading contract for everything owned by
// a shard: touch it only from that shard's thread, from before start(),
// or through post_to()/run_on().
//
// Wire format per frame: [u32 from][u32 to][payload bytes]. The envelope
// carries addresses because a single listener can host several logical
// endpoints (the front-end and membership server share a port, as they
// share a process in the paper's deployment).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "net/tcp.h"
#include "net/timer_heap.h"
#include "net/transport.h"

namespace roar::net {

// Wall-clock Clock. Timers live in a TimerHeap fired by TcpDriver::poll
// between epoll batches; the epoll wait is bounded by the earliest pending
// timer, at microsecond resolution, so a due timer fires within the
// kernel's wake-up latency rather than on the next millisecond.
// Single-shard-thread use only: cross-thread schedule goes through
// TcpDriver::post_to.
class WallClock : public Clock {
 public:
  WallClock() : t0_(std::chrono::steady_clock::now()) {}

  double now() const override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }
  uint64_t schedule_after(double delay, Callback fn) override {
    return timers_.push(now() + std::max(0.0, delay), std::move(fn));
  }
  void cancel(uint64_t id) override { timers_.cancel(id); }

  // Microseconds until the earliest live timer, rounded up and clamped to
  // [0, cap_us]; cap_us when no timer is pending.
  int64_t next_timeout_us(int64_t cap_us);
  // Runs every timer due at the current wall time; returns count fired.
  size_t fire_due();
  size_t pending() const { return timers_.size(); }

 private:
  std::chrono::steady_clock::time_point t0_;
  TimerHeap timers_;
};

// Cross-thread closure queue into one reactor shard: one mutex-guarded
// vector that every producer appends to, so closures from any one producer
// run in the order it pushed them. The consumer (the shard's loop) takes
// the whole vector each round. Unbounded by design: a closure is a
// completion the shard must run, and the queue bound that matters is the
// node's admission cap upstream. The eventfd wakeup lives in
// TcpReactor::notify — this class only tracks the pending count the
// poller's sleep check needs.
class Mailbox {
 public:
  // Any thread. Never blocks on the consumer, never drops.
  void push(std::function<void()> fn);
  // Consumer only: replaces `out`'s contents with everything pending and
  // returns the count. `out` and the queue trade buffers, so a consumer
  // that reuses one `out` allocates nothing in the steady state.
  size_t drain(std::vector<std::function<void()>>& out);

  // seq_cst so it pairs with the poller's sleeping-flag handshake.
  size_t pending() const {
    return pending_.load(std::memory_order_seq_cst);
  }

 private:
  std::mutex mu_;
  std::vector<std::function<void()>> queue_;  // guarded by mu_
  std::atomic<size_t> pending_{0};
};

// Shared runtime for a set of TcpTransport endpoints; see the file
// comment for the sharding and threading model.
class TcpDriver {
 public:
  explicit TcpDriver(size_t shards = 1);
  ~TcpDriver();
  TcpDriver(const TcpDriver&) = delete;
  TcpDriver& operator=(const TcpDriver&) = delete;

  size_t shards() const { return shards_.size(); }
  TcpReactor& reactor(size_t shard = 0) { return shards_[shard]->reactor; }
  WallClock& clock(size_t shard = 0) { return shards_[shard]->clock; }

  // Address registry (thread-safe). Host is implicit (loopback) in this
  // build; the registry still speaks (host, port) pairs so a multi-host
  // deployment only changes the connect path.
  void add_route(Address addr, uint16_t port, const std::string& host = "");
  void remove_route(Address addr);
  std::optional<uint16_t> route(Address addr) const;

  // Thread-safe. Queues `fn` to run on the shard's loop thread at its
  // next poll round and wakes a parked poller promptly. This is the
  // completion-handoff rule: off-loop work must never touch transports,
  // clusters, or timers directly — it posts a closure instead.
  void post_to(size_t shard, std::function<void()> fn);
  void post(std::function<void()> fn) { post_to(0, std::move(fn)); }
  // Runs `fn` on the shard's loop and waits for it. Inline when called
  // from that shard's own thread (or when the shard has no thread — not
  // started, or shard 0, whose loop is the caller by contract).
  void run_on(size_t shard, std::function<void()> fn);
  // Posted closures waiting on shard 0 (diagnostics).
  size_t posted_pending() const { return shards_[0]->mail.pending(); }

  // Launches loop threads for shards 1..N-1 (no-op when N == 1 or already
  // started). Call after every endpoint is constructed: construction
  // touches shard reactors and is not synchronized against running loops.
  void start();
  // Joins shard threads; after this the shards are safe to touch from the
  // caller again. Idempotent; also run by the destructor.
  void stop();
  bool started() const { return started_.load(std::memory_order_acquire); }

  // One shard-0 scheduling round: epoll (waiting at most `max_wait_ms`,
  // less if a timer is due sooner), then due timers, then mailbox
  // closures, then a write flush so everything the round produced leaves
  // the process. Returns events handled.
  size_t poll(int max_wait_ms = 10);
  // Polls shard 0 until pred() holds or `timeout_s` wall seconds pass.
  bool run_until(const std::function<bool()>& pred, double timeout_s = 10.0);

  // Efficiency counter summed over shards.
  uint64_t wakeups_elided() const;
  // Registers the driver's counters with a metrics registry as lazy
  // gauges under `prefix` (elided wakeups and the per-reactor flush
  // batching counters summed over shards). All sampled counters are
  // relaxed atomics, so snapshotting while shard loops run is race-free.
  void register_metrics(MetricsRegistry& reg, const std::string& prefix);

 private:
  struct Shard {
    TcpReactor reactor;
    WallClock clock;
    Mailbox mail;
    std::thread thread;              // shards >= 1 while started
    std::atomic<bool> stop{false};
    // Loop-thread-only drain scratch, reused to keep the steady state
    // allocation-free.
    std::vector<std::function<void()>> scratch;
  };

  size_t poll_shard(Shard& sh, int64_t max_wait_us);
  void shard_loop(Shard& sh);

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex routes_mu_;
  std::unordered_map<Address, uint16_t> routes_;  // guarded by routes_mu_
  std::atomic<bool> started_{false};
};

class TcpTransport : public Transport {
 public:
  // Opens a listener on an ephemeral loopback port (query with port()).
  // The transport is pinned to `shard`: all its socket, timer and handler
  // work runs on that shard's loop.
  explicit TcpTransport(TcpDriver& driver, size_t shard = 0);
  ~TcpTransport() override;

  uint16_t port() const;
  size_t shard() const { return shard_; }

  // Transport interface. bind() also publishes addr -> port() in the
  // driver's registry so peers can reach the endpoint. bind/unbind/send
  // follow the shard threading contract (shard thread, pre-start, or via
  // post_to/run_on).
  void bind(Address addr, Handler handler) override;
  void unbind(Address addr) override;
  void send(Address from, Address to, Bytes payload) override;

  Clock& clock() override { return driver_.clock(shard_); }

  double latency() const override { return latency_; }
  // Nominal one-way latency fed to the front-end's delay estimator
  // (loopback is ~tens of µs; a datacenter deployment would set its RTT).
  void set_latency_hint(double s) { latency_ = s; }

  // Counter reads are thread-safe (relaxed atomics): benches and tests
  // sample them while shard loops run.
  uint64_t messages_sent() const override {
    return messages_sent_.load(std::memory_order_relaxed);
  }
  uint64_t messages_dropped() const override {
    return messages_dropped_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_sent() const override {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_dropped() const override {
    return bytes_dropped_.load(std::memory_order_relaxed);
  }
  // Actual on-the-wire volume including envelope + frame headers.
  uint64_t wire_bytes_sent() const {
    return wire_bytes_sent_.load(std::memory_order_relaxed);
  }
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

 private:
  void on_incoming_frame(Payload frame);
  // Cached connection to a peer port, (re)connecting as needed.
  TcpConnection* connection_to(uint16_t port);

  TcpDriver& driver_;
  const size_t shard_;
  std::unique_ptr<TcpListener> listener_;
  std::unordered_map<Address, Handler> handlers_;
  std::unordered_map<uint16_t, TcpConnection*> conns_;  // by remote port
  // Accepted connections: their frame handlers capture `this`, so the
  // destructor must close them too, not just the outgoing cache.
  std::unordered_map<uint64_t, TcpConnection*> inbound_;  // by conn id
  std::unordered_set<uint16_t> ever_connected_;  // reconnect accounting
  double latency_ = 50e-6;
  std::atomic<uint64_t> messages_sent_{0};
  std::atomic<uint64_t> messages_dropped_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_dropped_{0};
  std::atomic<uint64_t> wire_bytes_sent_{0};
  std::atomic<uint64_t> reconnects_{0};
};

}  // namespace roar::net
