// Fixed-size work-stealing thread pool: the cluster's query-execution
// engine substrate.
//
// Each worker owns one mutex-guarded deque. submit() places a task on the
// next worker round-robin, submit_to() on a chosen one; the owner pops
// from the front and idle workers steal from the back, so every queued
// task can move to a free lane. A pool of size 0 runs every task inline
// on the caller's thread — a node's single-core executor, which runs the
// same batched path as a pooled one.
//
// Synchronization is per-worker (one mutex + condvar each) plus a few
// pool-wide atomics; there is no pool-wide lock on the submit or
// execution path. Sleeping workers re-check for work after raising their
// sleeping flag and park with a bounded wait, so a wakeup lost to the
// flag race costs one timeout tick of latency, never a hang.
//
// Shutdown: the destructor (and drain()) completes every task already
// submitted — including tasks submitted by running tasks — before
// returning; workers are then joined. Tasks submitted after shutdown
// began run inline. A task that throws does not kill its worker: the
// first exception is captured and rethrown by the next drain() call
// (the destructor swallows it after logging).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace roar::core {

class WorkerPool {
 public:
  using Task = std::function<void()>;

  // 0 workers = inline execution (submit runs the task on the caller).
  explicit WorkerPool(size_t workers);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t size() const { return threads_.size(); }

  // Enqueues `task` on the next worker round-robin (submit_to of the
  // cursor). Inline when size()==0 or after shutdown began; inline tasks
  // propagate exceptions directly.
  void submit(Task task);
  // Targets a specific worker's deque; other workers may still steal it.
  // Lets callers bias placement (and lets tests force stealing).
  void submit_to(size_t worker, Task task);

  // Blocks until every submitted task has finished. Rethrows the first
  // exception captured from a pooled task since the previous drain.
  void drain();

  // Diagnostics. executed counts completed tasks; stolen counts tasks a
  // worker took from another worker's deque.
  uint64_t executed() const;
  uint64_t stolen() const;
  std::vector<uint64_t> per_worker_executed() const;

 private:
  struct WorkerState {
    std::mutex mu;
    std::deque<Task> deque;  // guarded by mu
    // deque.size() mirror, readable without the lock (steal scan, sleep
    // check).
    std::atomic<size_t> deque_len{0};
    std::condition_variable cv;
    std::atomic<bool> sleeping{false};
    std::atomic<uint64_t> executed{0};
  };

  void worker_loop(size_t index);
  // True if any queue anywhere is non-empty (approximate: lock-free
  // reads; the bounded sleep covers the race).
  bool any_work() const;
  // Wakes the target if parked, else any parked worker (every queued
  // task is stealable, so an idle peer can serve it).
  void wake_for(size_t target);
  void finish_one();

  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<size_t> next_worker_{0};  // round-robin submit cursor (a hint)
  std::atomic<size_t> in_flight_{0};    // queued + currently running
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> stolen_{0};
  mutable std::mutex idle_mu_;
  std::condition_variable idle_cv_;  // drain: in-flight reached zero
  std::mutex error_mu_;
  std::exception_ptr first_error_;  // guarded by error_mu_
};

}  // namespace roar::core
