// core::WorkerPool: the execution-engine substrate. Covers the contract
// the cluster depends on — shutdown drains everything already submitted,
// stealing spreads skewed load and frees a task queued behind a busy lane,
// exceptions surface at drain() without killing lanes, and size 0
// degenerates to inline execution.
#include "core/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace roar::core {
namespace {

TEST(WorkerPool, ExecutesEverySubmittedTask) {
  WorkerPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.drain();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(pool.executed(), 1000u);
}

TEST(WorkerPool, SizeZeroRunsInline) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  bool ran = false;
  pool.submit([&] { ran = true; });
  // No drain needed: inline submission completes before returning.
  EXPECT_TRUE(ran);
  // Inline tasks propagate exceptions directly to the caller.
  EXPECT_THROW(pool.submit([] { throw std::runtime_error("inline"); }),
               std::runtime_error);
}

TEST(WorkerPool, DestructorCompletesQueuedTasks) {
  std::atomic<int> count{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No drain: destruction itself must finish the backlog.
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(WorkerPool, ShutdownRunsTasksSubmittedByTasks) {
  std::atomic<int> count{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count, &pool] {
        count.fetch_add(1, std::memory_order_relaxed);
        pool.submit([&count] {
          count.fetch_add(1, std::memory_order_relaxed);
        });
      });
    }
  }
  // Every parent and every child ran, whether pooled or (during late
  // shutdown) inline on a worker.
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkerPool, StealingSpreadsSkewedLoad) {
  WorkerPool pool(4);
  std::atomic<int> count{0};
  // Pin every task to worker 0: progress beyond serial speed can only
  // come from the other three lanes stealing.
  for (int i = 0; i < 400; ++i) {
    pool.submit_to(0, [&] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.drain();
  EXPECT_EQ(count.load(), 400);
  EXPECT_GT(pool.stolen(), 0u);
  auto per_worker = pool.per_worker_executed();
  int workers_used = 0;
  uint64_t total = 0;
  for (uint64_t n : per_worker) {
    if (n > 0) ++workers_used;
    total += n;
  }
  EXPECT_EQ(total, 400u);
  EXPECT_GE(workers_used, 2);
}

TEST(WorkerPool, RoundRobinTaskBehindBusyLaneIsStolen) {
  WorkerPool pool(2);
  std::atomic<bool> t2_ran{false};
  std::atomic<bool> t0_saw_t2{false};
  // Round-robin places T0 and T2 on one lane and T1 on the other. T0
  // holds its lane until T2 has run, so T2 can only run if the other
  // lane steals it. The deadline turns a missing steal into a failure
  // rather than a hang.
  pool.submit([&] {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!t2_ran.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    t0_saw_t2.store(t2_ran.load(std::memory_order_acquire));
  });
  pool.submit([] {});
  pool.submit([&] { t2_ran.store(true, std::memory_order_release); });
  pool.drain();
  EXPECT_TRUE(t0_saw_t2.load()) << "T2 waited behind the busy lane";
  EXPECT_GT(pool.stolen(), 0u);
}

TEST(WorkerPool, ExceptionSurfacesAtDrainAndPoolSurvives) {
  WorkerPool pool(2);
  std::atomic<int> count{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 10; ++i) {
    pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_THROW(pool.drain(), std::runtime_error);
  // The failure was consumed; lanes are intact and later work runs.
  pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.drain();  // no rethrow: error was cleared by the previous drain
  EXPECT_EQ(count.load(), 11);
}

TEST(WorkerPool, DrainWaitsForSlowTasks) {
  WorkerPool pool(3);
  std::atomic<bool> done{false};
  pool.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done.store(true, std::memory_order_release);
  });
  pool.drain();
  EXPECT_TRUE(done.load(std::memory_order_acquire));
}

}  // namespace
}  // namespace roar::core
