// Figure 5.5 — query delay with in-memory metadata as the number of
// matching threads grows: near-linear speedup up to the core count, then a
// plateau where feeding/coordination becomes the bottleneck.
//
// The matching runs on the cluster's actual execution engine
// (core::WorkerPool): the store is split into batches, every batch is a
// pool task, and the delay is the wall time from first submit to drain —
// the same pool TcpCluster's real-matching nodes scan on. The
// node_workers sweep in bench_tcp_loopback models this curve's linear
// part: a W-lane analytic pipeline per node, with no threads.
//
// Build & run:  ./build/bench/bench_fig5_5_threads [--json out.json]
//               [--seed n] [--duration ignored]
#include <atomic>
#include <thread>

#include "bench/bench_runner.h"
#include "bench/bench_util.h"
#include "bench/pps_bench_common.h"
#include "core/worker_pool.h"

using namespace roar;
using namespace roar::bench;

namespace {

// One timed run: batches of `batch_entries` submitted to a `workers`-lane
// pool (workers = 0 matches inline on the caller, the single-thread
// reference).
double run_once(const PpsFixture& fx, const pps::MultiPredicateQuery& q,
                size_t workers, size_t batch_entries) {
  const auto& items = fx.store.items();
  std::atomic<uint64_t> matches{0};
  auto t0 = std::chrono::steady_clock::now();
  {
    core::WorkerPool pool(workers);
    for (size_t b = 0; b < items.size(); b += batch_entries) {
      size_t e = std::min(b + batch_entries, items.size());
      pool.submit([&, b, e] {
        auto eval = q.evaluate();
        pps::MatchCost cost;
        uint64_t local = 0;
        for (size_t i = b; i < e; ++i) {
          if (eval.match(items[i], &cost)) ++local;
        }
        matches.fetch_add(local, std::memory_order_relaxed);
      });
    }
    pool.drain();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Submission-contention microbench: near-empty tasks submitted round-robin
// at maximum rate, so the handoff path itself (one locked deque push per
// task, plus the wake) is the measured cost.
double contention_run(size_t workers, size_t tasks) {
  std::atomic<uint64_t> sink{0};
  auto t0 = std::chrono::steady_clock::now();
  {
    core::WorkerPool pool(workers);
    for (size_t i = 0; i < tasks; ++i) {
      pool.submit([&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.drain();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  RunnerOptions opt = RunnerOptions::parse("fig5_5_threads", argc, argv);
  constexpr size_t kItems = 200'000;
  constexpr size_t kBatch = 2'000;
  const uint64_t seed = opt.seed_or(7);

  PpsFixture fx;
  fx.rng = Rng(seed);
  fx.build(kItems);

  header("Figure 5.5",
         "in-memory query delay vs worker lanes, " + std::to_string(kItems) +
             " metadata on core::WorkerPool");
  note("host cores: " + std::to_string(std::thread::hardware_concurrency()));
  columns({"workers", "delay_s", "speedup", "metadata_per_s"});

  BenchReport report(opt, seed, opt.duration_or(0.0));

  auto q = fx.zero_match_query();
  std::vector<double> delays;
  for (size_t workers : {1u, 2u, 3u, 4u, 6u, 8u}) {
    // Repeat and take the median to de-noise scheduling jitter.
    SampleSet samples;
    for (int rep = 0; rep < 5; ++rep) {
      samples.add(run_once(fx, q, workers, kBatch));
    }
    delays.push_back(samples.median());
    double rate = static_cast<double>(kItems) / delays.back();
    row({static_cast<double>(workers), delays.back(),
         delays.front() / delays.back(), rate});
    if (workers == 1) report.metric("metadata_per_s_1w", rate);
    if (workers == 4) report.metric("metadata_per_s_4w", rate);
  }

  double speedup2 = delays[0] / delays[1];
  double best = delays[0] / *std::min_element(delays.begin(), delays.end());
  double tail = delays[0] / delays.back();
  report.metric("speedup_2w", speedup2);
  report.metric("speedup_best", best);
  report.metric("delay_s_1w", delays[0]);

  // ---- submission-contention microbench ---------------------------------
  blank();
  note("handoff contention: 200k empty tasks through submit(); median of 5");
  columns({"workers", "handoff_Mtask_s"});
  constexpr size_t kTinyTasks = 200'000;
  for (size_t workers : {2u, 4u}) {
    SampleSet samples;
    for (int rep = 0; rep < 5; ++rep) {
      samples.add(contention_run(workers, kTinyTasks));
    }
    double rate = kTinyTasks / samples.median() / 1e6;
    row({static_cast<double>(workers), rate});
    if (workers == 4) report.metric("handoff_mtasks_per_s", rate);
  }

  size_t cores = std::thread::hardware_concurrency();
  // The thesis' claim needs cores to scale across; on a single-core host
  // the curve degenerates to a flat line, which is itself the correct
  // Fig 5.5 shape for that hardware.
  shape("2 threads speed up matching substantially (x" +
            std::to_string(speedup2) + ")",
        cores >= 2 ? speedup2 > 1.4 : speedup2 > 0.8);
  shape("speedup plateaus (best x" + std::to_string(best) + ", 8-lane x" +
            std::to_string(tail) + ")",
        tail < best * 1.3);
  return report.write() ? 0 : 1;
}
