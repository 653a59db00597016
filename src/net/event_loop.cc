#include "net/event_loop.h"

namespace roar::net {

uint64_t EventLoop::schedule_at(double when, Callback fn) {
  if (when < now_) when = now_;
  return timers_.push(when, std::move(fn));
}

size_t EventLoop::run_until(double deadline) {
  size_t executed = 0;
  while (auto ev = timers_.pop_due(deadline)) {
    now_ = ev->when;
    ev->fn();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

}  // namespace roar::net
