// Sustained query throughput of the deployable cluster over real loopback
// TCP sockets — the transport-abstraction counterpart of the virtual-time
// Chapter 7 benches, and the headline workload of the parallel
// query-execution engine.
//
// Two sweeps:
//  * modeled matching (the seed's Definition-8 service model) across
//    worker-pool sizes: workers = 0 is the single analytic pipeline per
//    node; workers = N is an N-lane engine per node, so throughput scales
//    with the lane count until the front-end/loop thread saturates;
//  * real pps matching (MatchEngine: encrypted corpus + keyword query)
//    inline (a size-0 pool: the same batched path, scanned on the node's
//    shard thread) vs pooled, as an honest measured-CPU data point.
//
// Build & run:  ./build/bench/bench_tcp_loopback [--json out.json]
//               [--seed n] [--duration per-run-seconds]
//               [--trace-out spans.txt] [--metrics-out metrics.txt]
#include <algorithm>

#include "bench/bench_runner.h"
#include "bench/bench_util.h"
#include "cluster/tcp_cluster.h"
#include "common/metrics.h"
#include "core/tracer.h"
#include "net/buf.h"

using namespace roar;
using namespace roar::bench;
using namespace roar::cluster;

namespace {

TcpClusterConfig bench_config(uint64_t seed, uint32_t workers,
                              bool real_matching,
                              uint32_t reactor_shards = 1) {
  TcpClusterConfig cfg;
  cfg.nodes = 8;
  cfg.p = 4;
  cfg.dataset_size = 20'000;
  cfg.seed = seed;
  // Fast matching model so the bench measures the transport + engine, not
  // the modeled service sleeps: ~1 ms per sub-query. (At the old 1.5 ms
  // the lane capacity 8 nodes x 8 lanes / 1.5 ms capped the sweep below
  // what the datapath can now carry.)
  cfg.node_proto.base_rate = 1e7;
  cfg.node_proto.subquery_overhead_s = 0.0005;
  cfg.frontend.subquery_overhead_s = 0.0005;
  cfg.frontend.initial_rate = 1e7;
  cfg.node_workers = workers;
  if (real_matching) {
    // Honest CPU: the encrypted keyword match costs ~5 µs/item, so size
    // the corpus for ~5 ms sub-queries and tell the front-end's delay
    // estimator the truth (≈200k metadata/s) — seeding it with the
    // modeled 5e6 rate would declare every node dead on the first query.
    cfg.real_matching = true;
    cfg.engine.corpus_items = 4'000;
    cfg.dataset_size = cfg.engine.corpus_items;
    cfg.node_proto.base_rate = 200'000.0;
    cfg.frontend.initial_rate = 200'000.0;
    cfg.frontend.timeout_margin_s = 0.5;
  }
  cfg.reactor_shards = reactor_shards;
  return cfg;
}

// Pool-slab + TX-byte-buffer heap allocations per completed query: the
// datapath's recycling score (near zero once the arena is warm).
// `bytes_fresh_before` is the process-wide TX freelist miss count taken
// before this cluster ran (the counter is global; slab stats are not).
double allocs_per_query(TcpCluster& cluster, uint32_t completed,
                        uint64_t bytes_fresh_before) {
  if (completed == 0) return 0.0;
  uint64_t fresh = net::byte_freelist_stats().fresh - bytes_fresh_before;
  for (size_t s = 0; s < cluster.driver().shards(); ++s) {
    fresh += cluster.driver().reactor(s).buf_pool().stats().fresh;
  }
  return static_cast<double>(fresh) / completed;
}

// Frames-per-writev batching score summed over every reactor shard.
double frames_per_writev(TcpCluster& cluster) {
  double frames = 0.0, syscalls = 0.0;
  for (size_t s = 0; s < cluster.driver().shards(); ++s) {
    frames += static_cast<double>(cluster.driver().reactor(s).frames_flushed());
    syscalls +=
        static_cast<double>(cluster.driver().reactor(s).flush_syscalls());
  }
  return syscalls > 0 ? frames / syscalls : 0.0;
}

// Latency quantiles come from the cluster's own frontend.latency_s
// registry histogram (log-bucketed, ~9% resolution) instead of a raw
// SampleSet — the bench only reports mean/p50/p99, never raw samples.
struct RunResult {
  double qps = 0.0;
  uint32_t submitted = 0;
  uint32_t completed = 0;
};

// Keeps `window` queries outstanding for `duration_s`, then drains.
RunResult run_windowed(TcpCluster& cluster, double duration_s,
                       uint32_t window) {
  RunResult res;
  uint32_t outstanding = 0;
  auto& driver = cluster.driver();
  double t0 = driver.clock().now();
  double stop_at = t0 + duration_s;

  std::function<void()> submit_next = [&] {
    if (driver.clock().now() >= stop_at) return;
    ++outstanding;
    ++res.submitted;
    cluster.frontend().submit([&](const QueryOutcome& out) {
      --outstanding;
      if (out.complete) ++res.completed;
      submit_next();
    });
  };
  for (uint32_t i = 0; i < window; ++i) submit_next();
  driver.run_until(
      [&] { return outstanding == 0 && driver.clock().now() >= stop_at; },
      duration_s + 60.0);

  double elapsed = driver.clock().now() - t0;
  res.qps = elapsed > 0 ? res.submitted / elapsed : 0.0;
  return res;
}

const Histogram& latency_hist(TcpCluster& cluster) {
  return cluster.metrics().histogram("frontend.latency_s");
}

}  // namespace

int main(int argc, char** argv) {
  RunnerOptions opt = RunnerOptions::parse("tcp_loopback", argc, argv);
  const uint64_t seed = opt.seed_or(3);
  const double duration = opt.duration_or(2.0);
  constexpr uint32_t kWindow = 32;

  header("bench_tcp_loopback",
         "ROAR query throughput over real loopback TCP sockets");
  note("8 nodes + front-end, each endpoint on its own listener; p=4;");
  note("window=" + std::to_string(kWindow) + " outstanding queries, " +
       std::to_string(duration) + " s per run, seed " + std::to_string(seed));

  BenchReport report(opt, seed, duration);

  // ---- modeled matching, worker sweep ----------------------------------
  note("modeled matching (Definition-8 service model) vs worker lanes:");
  columns({"workers", "queries/s", "mean_ms", "p50_ms", "p99_ms",
           "complete"});
  double qps_inline = 0.0, qps_best = 0.0;
  for (uint32_t workers : {0u, 1u, 2u, 4u, 8u, 16u}) {
    TcpCluster cluster(bench_config(seed, workers, /*real_matching=*/false));
    uint64_t bytes_fresh0 = net::byte_freelist_stats().fresh;
    RunResult r = run_windowed(cluster, duration, kWindow);
    const Histogram& lat = latency_hist(cluster);
    row({static_cast<double>(workers), r.qps, lat.mean() * 1e3,
         lat.percentile(0.50) * 1e3, lat.percentile(0.99) * 1e3,
         static_cast<double>(r.completed)});
    if (workers == 0) {
      qps_inline = r.qps;
      report.metric("queries_per_s_inline", r.qps);
      report.latency_ms("inline", lat);
    }
    if (workers == 16) {
      qps_best = r.qps;
      report.metric("queries_per_s", r.qps);
      report.latency_ms("latency", lat);
      report.metric("complete", r.completed);
      report.metric("bytes_per_query",
                    r.completed > 0 ? static_cast<double>(
                                          cluster.bytes_sent()) /
                                          r.completed
                                    : 0.0);
      report.metric("faults",
                    static_cast<double>(cluster.messages_dropped()));
      report.metric("batches_drained",
                    static_cast<double>(cluster.batches_drained()));
      report.metric("batched_subqueries",
                    static_cast<double>(cluster.batched_subqueries()));
      report.metric("frames_per_writev", frames_per_writev(cluster));
      report.metric("alloc_per_query",
                    allocs_per_query(cluster, r.completed, bytes_fresh0));
      report.metric("wakeups_elided",
                    static_cast<double>(cluster.driver().wakeups_elided()));
      // The 16-worker run's whole metrics plane rides along in the JSON
      // record, and the observability flags dump it (plus the assembled
      // span trees still in the trace rings) as text.
      report.embed_registry(cluster.metrics());
      write_text_out(opt.bench_name, opt.metrics_out_path,
                     cluster.metrics().to_text());
      write_text_out(opt.bench_name, opt.trace_out_path,
                     core::SpanAssembler::render_all(cluster.trace_events()));
      blank();
      note("traffic at 16 workers: " +
           std::to_string(cluster.messages_sent()) + " msgs, " +
           std::to_string(cluster.bytes_sent()) + " payload bytes; " +
           "wakeups_elided=" +
           std::to_string(cluster.driver().wakeups_elided()));
    }
  }
  report.metric("speedup_16w", qps_inline > 0 ? qps_best / qps_inline : 0.0);

  // ---- real pps matching ------------------------------------------------
  // Deeper window than modeled would allow: real scans are CPU-bound but
  // short since the batched AES kernel, so window 8 keeps every lane fed
  // without tripping failure timeouts on a small host.
  blank();
  note("real matching (encrypted 4k-item corpus, keyword query):");
  columns({"workers", "shards", "queries/s", "mean_ms", "p50_ms", "p99_ms",
           "complete"});
  struct RealPoint {
    uint32_t workers;
    uint32_t shards;
  };
  double real_traced_qps = 0.0;
  for (RealPoint pt : {RealPoint{0, 1}, RealPoint{4, 1}, RealPoint{4, 2}}) {
    TcpCluster cluster(
        bench_config(seed, pt.workers, /*real_matching=*/true, pt.shards));
    RunResult r = run_windowed(cluster, duration, /*window=*/8);
    const Histogram& lat = latency_hist(cluster);
    row({static_cast<double>(pt.workers), static_cast<double>(pt.shards),
         r.qps, lat.mean() * 1e3, lat.percentile(0.50) * 1e3,
         lat.percentile(0.99) * 1e3, static_cast<double>(r.completed)});
    if (pt.workers == 0) {
      report.metric("real_queries_per_s_inline", r.qps);
    } else if (pt.shards == 1) {
      real_traced_qps = r.qps;
      report.metric("real_queries_per_s", r.qps);
    } else {
      report.metric("real_queries_per_s_sharded", r.qps);
    }
  }

  // ---- tracing-overhead gate --------------------------------------------
  // The same 4-worker real-matching run with trace-event recording off.
  // Tracing is always-on in the harness, so this is the honest measurement
  // of what that costs; CI gates tracing_overhead_pct (lower is better).
  {
    TcpCluster cluster(
        bench_config(seed, 4, /*real_matching=*/true, /*reactor_shards=*/1));
    cluster.tracer().set_enabled(false);
    RunResult r = run_windowed(cluster, duration, /*window=*/8);
    report.metric("real_queries_per_s_untraced", r.qps);
    double overhead_pct =
        r.qps > 0 ? std::max(0.0, (r.qps - real_traced_qps) / r.qps * 100.0)
                  : 0.0;
    report.metric("tracing_overhead_pct", overhead_pct);
    blank();
    note("tracing overhead (real matching, 4 workers): traced " +
         std::to_string(real_traced_qps) + " q/s vs untraced " +
         std::to_string(r.qps) + " q/s = " + std::to_string(overhead_pct) +
         "%");
  }

  blank();
  shape("16 worker lanes at least double the inline throughput (x" +
            std::to_string(qps_inline > 0 ? qps_best / qps_inline : 0.0) +
            ")",
        qps_best >= 2.0 * qps_inline);
  shape("real-socket cluster sustains >50 queries/s",
        qps_inline > 50.0);

  return report.write() ? 0 : 1;
}
