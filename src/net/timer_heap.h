// The timer queue both clocks run on: a binary min-heap of (when, id)
// with lazy cancellation. Ids are handed out in push order, so timers due
// at the same time pop in the order they were scheduled — the stability
// the virtual-time experiments' byte-identical traces depend on.
// Single-threaded; the owning clock serializes access.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace roar::net {

class TimerHeap {
 public:
  using Callback = std::function<void()>;

  struct Due {
    double when;
    Callback fn;
  };

  // Schedules `fn` at `when`; returns its id for cancel().
  uint64_t push(double when, Callback fn);
  // Drops a pending timer; no-op if it already popped or is unknown.
  void cancel(uint64_t id) { callbacks_.erase(id); }
  // Time of the earliest live timer; nullopt when none is pending. Drops
  // cancelled entries off the top on the way.
  std::optional<double> next_due();
  // Removes and returns the earliest live timer if it is due at `t`.
  std::optional<Due> pop_due(double t);
  // Live (uncancelled, unfired) timers.
  size_t size() const { return callbacks_.size(); }

 private:
  struct Entry {
    double when;
    uint64_t id;
    bool operator>(const Entry& o) const {
      if (when != o.when) return when > o.when;
      return id > o.id;
    }
  };

  uint64_t next_id_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  // id -> callback; cancel erases, so a heap entry without one is dead.
  std::unordered_map<uint64_t, Callback> callbacks_;
};

}  // namespace roar::net
