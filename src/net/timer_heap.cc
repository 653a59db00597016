#include "net/timer_heap.h"

namespace roar::net {

uint64_t TimerHeap::push(double when, Callback fn) {
  uint64_t id = next_id_++;
  heap_.push(Entry{when, id});
  callbacks_.emplace(id, std::move(fn));
  return id;
}

std::optional<double> TimerHeap::next_due() {
  while (!heap_.empty() && !callbacks_.contains(heap_.top().id)) heap_.pop();
  if (heap_.empty()) return std::nullopt;
  return heap_.top().when;
}

std::optional<TimerHeap::Due> TimerHeap::pop_due(double t) {
  while (!heap_.empty()) {
    Entry top = heap_.top();
    auto it = callbacks_.find(top.id);
    if (it == callbacks_.end()) {
      heap_.pop();  // cancelled
      continue;
    }
    if (top.when > t) break;
    Due due{top.when, std::move(it->second)};
    callbacks_.erase(it);
    heap_.pop();
    return due;
  }
  return std::nullopt;
}

}  // namespace roar::net
