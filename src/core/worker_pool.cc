#include "core/worker_pool.h"

#include <chrono>

#include "common/logging.h"

namespace roar::core {

namespace {
// Bounded park: the sleep/wake handshake is flag-based and deliberately
// lock-light, so a theoretically-lost wakeup only costs one tick.
constexpr auto kParkTick = std::chrono::milliseconds(50);
}  // namespace

WorkerPool::WorkerPool(size_t workers) {
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<WorkerState>());
  }
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkerPool::~WorkerPool() {
  try {
    drain();
  } catch (const std::exception& e) {
    ROAR_LOG(kWarn) << "worker-pool: task failed during shutdown: "
                    << e.what();
  } catch (...) {
    ROAR_LOG(kWarn) << "worker-pool: task failed during shutdown";
  }
  stopping_.store(true, std::memory_order_seq_cst);
  for (auto& w : workers_) {
    // Lock + notify so a worker between its work re-check and its wait
    // cannot miss the stop signal.
    std::lock_guard lock(w->mu);
    w->cv.notify_all();
  }
  for (auto& t : threads_) t.join();
}

void WorkerPool::submit(Task task) {
  // Load + store, not fetch_add: a locked read-modify-write per task cut
  // handoff throughput ~15% in bench_fig5_5_threads. Concurrent submitters
  // may pick the same worker, which stealing makes harmless.
  size_t cursor = next_worker_.load(std::memory_order_relaxed);
  next_worker_.store(cursor + 1, std::memory_order_relaxed);
  submit_to(cursor, std::move(task));
}

void WorkerPool::submit_to(size_t worker, Task task) {
  if (threads_.empty() || stopping_.load(std::memory_order_acquire)) {
    task();  // inline mode (size 0, or shutdown already began)
    return;
  }
  in_flight_.fetch_add(1, std::memory_order_seq_cst);
  size_t target = worker % workers_.size();
  WorkerState& w = *workers_[target];
  {
    std::lock_guard lock(w.mu);
    w.deque.push_back(std::move(task));
    w.deque_len.store(w.deque.size(), std::memory_order_relaxed);
  }
  wake_for(target);
}

void WorkerPool::drain() {
  std::unique_lock lock(idle_mu_);
  idle_cv_.wait(lock, [&] {
    return in_flight_.load(std::memory_order_seq_cst) == 0;
  });
  lock.unlock();
  std::lock_guard err_lock(error_mu_);
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    std::rethrow_exception(err);
  }
}

uint64_t WorkerPool::executed() const {
  uint64_t total = 0;
  for (const auto& w : workers_) {
    total += w->executed.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t WorkerPool::stolen() const {
  return stolen_.load(std::memory_order_relaxed);
}

std::vector<uint64_t> WorkerPool::per_worker_executed() const {
  std::vector<uint64_t> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    out.push_back(w->executed.load(std::memory_order_relaxed));
  }
  return out;
}

bool WorkerPool::any_work() const {
  for (const auto& w : workers_) {
    if (w->deque_len.load(std::memory_order_relaxed) > 0) return true;
  }
  return false;
}

void WorkerPool::wake_for(size_t target) {
  WorkerState& w = *workers_[target];
  if (w.sleeping.load(std::memory_order_seq_cst)) {
    std::lock_guard lock(w.mu);
    w.cv.notify_one();
    return;
  }
  // Target is busy; a parked peer can steal the task instead of letting
  // it wait behind the target's backlog.
  for (const auto& peer : workers_) {
    if (peer.get() != &w &&
        peer->sleeping.load(std::memory_order_seq_cst)) {
      std::lock_guard lock(peer->mu);
      peer->cv.notify_one();
      return;
    }
  }
}

void WorkerPool::finish_one() {
  if (in_flight_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    std::lock_guard lock(idle_mu_);
    idle_cv_.notify_all();
  }
}

void WorkerPool::worker_loop(size_t index) {
  WorkerState& me = *workers_[index];
  for (;;) {
    Task task;
    bool got = false;
    bool stole = false;
    // Own deque's front first, then steal from a victim's back — scanning
    // from the next worker so the victim choice rotates rather than
    // always hitting worker 0.
    if (me.deque_len.load(std::memory_order_relaxed) > 0) {
      std::lock_guard lock(me.mu);
      if (!me.deque.empty()) {
        task = std::move(me.deque.front());
        me.deque.pop_front();
        me.deque_len.store(me.deque.size(), std::memory_order_relaxed);
        got = true;
      }
    }
    if (!got) {
      for (size_t off = 1; off < workers_.size() && !got; ++off) {
        WorkerState& victim = *workers_[(index + off) % workers_.size()];
        if (victim.deque_len.load(std::memory_order_relaxed) == 0) continue;
        std::lock_guard lock(victim.mu);
        if (!victim.deque.empty()) {
          task = std::move(victim.deque.back());
          victim.deque.pop_back();
          victim.deque_len.store(victim.deque.size(),
                                 std::memory_order_relaxed);
          got = true;
          stole = true;
        }
      }
    }

    if (got) {
      std::exception_ptr err;
      try {
        task();
      } catch (...) {
        err = std::current_exception();
      }
      task = nullptr;  // release captures before any bookkeeping
      if (err) {
        std::lock_guard lock(error_mu_);
        if (!first_error_) first_error_ = err;
      }
      me.executed.fetch_add(1, std::memory_order_relaxed);
      if (stole) stolen_.fetch_add(1, std::memory_order_relaxed);
      finish_one();
      continue;
    }

    if (stopping_.load(std::memory_order_acquire)) return;

    // Park. The flag is raised before the final work re-check so a
    // producer either sees sleeping==true (and notifies under our mutex)
    // or we see its push; the bounded wait covers the residual race
    // against deque_len's relaxed mirror.
    std::unique_lock lock(me.mu);
    me.sleeping.store(true, std::memory_order_seq_cst);
    if (!any_work() && !stopping_.load(std::memory_order_seq_cst)) {
      me.cv.wait_for(lock, kParkTick);
    }
    me.sleeping.store(false, std::memory_order_seq_cst);
  }
}

}  // namespace roar::core
