// Virtual-time event loop driving the emulated cluster.
//
// The cluster runtime (nodes, front-end, membership) is written entirely
// in terms of messages and timers on this loop, which makes multi-hundred-
// node experiments deterministic and far faster than wall-clock execution,
// while exercising the identical control-plane logic that would run over
// the TCP transport (net/tcp.h shows the same byte protocol on real
// sockets).
#pragma once

#include <cstdint>
#include <functional>

#include "net/timer_heap.h"
#include "net/transport.h"

namespace roar::net {

// The virtual-time Clock: time advances only by running scheduled events.
class EventLoop : public Clock {
 public:
  using Callback = std::function<void()>;

  double now() const override { return now_; }

  // Schedules `fn` at absolute time `when` (>= now). Events at equal times
  // run in scheduling order (stable).
  uint64_t schedule_at(double when, Callback fn);
  uint64_t schedule_after(double delay, Callback fn) override {
    return schedule_at(now_ + delay, std::move(fn));
  }

  // Cancels a scheduled event (no-op if already run or unknown).
  void cancel(uint64_t id) override { timers_.cancel(id); }

  // Runs until the queue is empty or `deadline` is passed. Returns the
  // number of events executed.
  size_t run_until(double deadline);
  size_t run_all(double safety_deadline = 1e12) {
    return run_until(safety_deadline);
  }

 private:
  double now_ = 0.0;
  TimerHeap timers_;
};

}  // namespace roar::net
