// Determinism guarantees of the parallel execution engine.
//
// 1. Query RESULTS are independent of the worker-pool size: with real
//    matching, a completed query's per-part match counts always sum to
//    the full-store match count (the §4.2 exact-coverage invariant), so
//    an inline node and a 4-lane node answer identically even though
//    their timing differs.
// 2. A node without an executor replies from the analytic pipeline, even
//    with a real MatchEngine attached: two EmulatedCluster runs with the
//    same seed produce identical virtual-time traces (per-query delays,
//    message and byte counts, final clock), with and without an engine.
// 3. Inline (size-0 pool) and pooled nodes both execute through the
//    batched drain path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/emulated_cluster.h"
#include "cluster/tcp_cluster.h"

namespace roar::cluster {
namespace {

TcpClusterConfig real_matching_config(uint32_t workers) {
  TcpClusterConfig cfg;
  cfg.nodes = 6;
  cfg.p = 3;
  cfg.seed = 5;
  cfg.real_matching = true;
  cfg.engine.corpus_items = 2'000;
  cfg.dataset_size = cfg.engine.corpus_items;
  // The encrypted keyword match costs ~5 µs/item; tell the delay
  // estimator so the first query is not declared a mass failure.
  cfg.node_proto.base_rate = 200'000.0;
  cfg.frontend.initial_rate = 200'000.0;
  cfg.frontend.timeout_margin_s = 0.5;
  cfg.node_workers = workers;
  return cfg;
}

TEST(ExecDeterminism, RealMatchResultsIndependentOfPoolSizeAndShards) {
  constexpr uint32_t kQueries = 8;
  // The full grid the datapath must be invisible across: inline vs
  // 4-lane pools, single-threaded vs 4-shard reactors.
  struct Grid {
    uint32_t workers;
    uint32_t shards;
  };
  const Grid grid[] = {{0, 1}, {0, 4}, {4, 1}, {4, 4}};
  std::vector<std::vector<uint64_t>> matches_by_cfg;
  uint64_t expected = 0;
  for (const Grid& g : grid) {
    auto cfg = real_matching_config(g.workers);
    cfg.reactor_shards = g.shards;
    TcpCluster cluster(cfg);
    ASSERT_NE(cluster.engine(), nullptr);
    expected = cluster.engine()->full_store_matches();
    ASSERT_GT(expected, 0u) << "query must match something to be a test";
    auto outcomes = cluster.run_queries(kQueries);
    matches_by_cfg.emplace_back();
    for (const auto& out : outcomes) {
      ASSERT_NE(out.id, 0u) << "query timed out at workers=" << g.workers
                            << " shards=" << g.shards;
      EXPECT_TRUE(out.complete);
      EXPECT_DOUBLE_EQ(out.harvest, 1.0);
      // Exact coverage: the responsibility windows partition the ring, so
      // the parts' match counts sum to the whole store's match count.
      EXPECT_EQ(out.matches, expected)
          << "workers=" << g.workers << " shards=" << g.shards;
      matches_by_cfg.back().push_back(out.matches);
    }
    if (g.workers > 0) {
      EXPECT_GT(cluster.pool_tasks_executed(), 0u)
          << "pooled run never used its lanes";
    }
  }
  for (size_t i = 1; i < matches_by_cfg.size(); ++i) {
    EXPECT_EQ(matches_by_cfg[0], matches_by_cfg[i]) << "grid point " << i;
  }
}

ClusterConfig emulated_config() {
  ClusterConfig cfg;
  cfg.classes = {{"uniform", 10, 1.0}};
  cfg.dataset_size = 1'000'000;
  cfg.p = 4;
  cfg.seed = 23;
  return cfg;
}

struct EmulatedTrace {
  std::vector<double> delays;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t completed = 0;
  double final_now = 0.0;
};

// Live ingestion gives every node a real MatchEngine over a small corpus.
ClusterConfig emulated_engine_config() {
  ClusterConfig cfg = emulated_config();
  cfg.enable_ingest = true;
  cfg.engine.corpus_items = 2'000;
  cfg.dataset_size = cfg.engine.corpus_items;
  return cfg;
}

EmulatedTrace run_emulated(const ClusterConfig& cfg) {
  EmulatedCluster cluster(cfg);
  EmulatedTrace trace;
  trace.completed = cluster.run_queries(/*rate_per_s=*/40.0, /*count=*/60);
  trace.delays = cluster.delays().samples();
  trace.messages = cluster.network().messages_sent();
  trace.bytes = cluster.network().bytes_sent();
  trace.final_now = cluster.now();
  return trace;
}

TEST(ExecDeterminism, VirtualTimeTraceIdenticalAtPoolSizeZero) {
  for (bool engine : {false, true}) {
    SCOPED_TRACE(engine ? "engine-backed" : "analytic");
    ClusterConfig cfg = engine ? emulated_engine_config() : emulated_config();
    EmulatedTrace a = run_emulated(cfg);
    EmulatedTrace b = run_emulated(cfg);
    EXPECT_GT(a.completed, 0u);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_DOUBLE_EQ(a.final_now, b.final_now);
    ASSERT_EQ(a.delays.size(), b.delays.size());
    for (size_t i = 0; i < a.delays.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.delays[i], b.delays[i]) << "query " << i;
    }
  }
}

// Batching accounting: inline and pooled nodes alike drain their pending
// sub-queries through the batched executor path.
TEST(ExecDeterminism, PooledNodesBatchSubqueries) {
  for (uint32_t workers : {0u, 2u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    TcpCluster cluster(real_matching_config(workers));
    auto outcomes = cluster.run_queries(6);
    for (const auto& out : outcomes) ASSERT_NE(out.id, 0u);
    EXPECT_GT(cluster.batches_drained(), 0u);
    EXPECT_GE(cluster.batched_subqueries(), cluster.batches_drained());
  }
}

}  // namespace
}  // namespace roar::cluster
