// End-to-end tests for the deployable TCP cluster, including the headline
// parity check: the same seeded workload (with an induced node failure)
// driven through EmulatedCluster/InProc virtual time and through
// TcpCluster/loopback sockets must report identical query outcomes —
// completion, matches, harvest — message for message.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>

#include "cluster/emulated_cluster.h"
#include "cluster/tcp_cluster.h"

namespace roar::cluster {
namespace {

// Shared workload shape. nodes > p leaves real replication slack
// (ranges ~1/8 of the circle vs arcs of 1/p = 1/4), so §4.4 failure
// splits always find covering neighbours and outcomes stay deterministic.
constexpr uint32_t kNodes = 8;
constexpr uint32_t kP = 4;
constexpr uint64_t kDataset = 88'000;  // per-part counts away from the
                                       // matches-model floor boundary
constexpr uint64_t kSeed = 11;
constexpr double kBaseRate = 1e6;  // metadata/s -> ~22 ms per sub-query
constexpr uint32_t kPreKill = 4, kPostKill = 10;
constexpr NodeId kVictim = 2;

FrontendParams parity_frontend() {
  FrontendParams fe;
  fe.timeout_factor = 3.0;
  fe.timeout_margin_s = 0.3;  // generous: wall-clock jitter must not split
  // Prior matches the true node rate: otherwise the first nodes observed
  // look far faster than the 250k default prior and the scheduler locks
  // onto them, never exercising the rest of the ring.
  fe.initial_rate = kBaseRate;
  return fe;
}

TcpClusterConfig tcp_config(uint32_t nodes = kNodes, uint32_t p = kP,
                            uint64_t dataset = kDataset) {
  TcpClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.p = p;
  cfg.dataset_size = dataset;
  cfg.seed = kSeed;
  cfg.frontend = parity_frontend();
  cfg.node_proto.base_rate = kBaseRate;
  return cfg;
}

ClusterConfig inproc_config() {
  ClusterConfig cfg;
  cfg.classes = {{"uniform", kNodes, 1.0}};
  cfg.dataset_size = kDataset;
  cfg.p = kP;
  cfg.seed = kSeed;
  cfg.frontend = parity_frontend();
  cfg.node_proto.base_rate = kBaseRate;
  return cfg;
}

// After each query, both drivers idle long enough for the front-end's
// queue projections (busy_until) to fall behind now: submit-time estimates
// are then purely rate-based, which keeps the two time bases' scheduling
// decisions bit-identical.
constexpr double kSettleS = 0.05;

QueryOutcome run_one_inproc(EmulatedCluster& c) {
  QueryOutcome out;
  bool done = false;
  c.frontend().submit([&](const QueryOutcome& o) {
    out = o;
    done = true;
  });
  while (!done) c.loop().run_until(c.now() + 0.01);
  c.loop().run_until(c.now() + kSettleS);
  return out;
}

QueryOutcome run_one_tcp(TcpCluster& c) {
  QueryOutcome out = c.run_query();
  c.run_for(kSettleS);
  return out;
}

// The seeded workload: kPreKill queries, crash one node, queries until the
// front-end detects the failure by timeout (with 8 nodes and p = 4 not
// every query touches the victim), then kPostKill more. Both worlds make
// identical scheduling decisions, so the detection query index — and hence
// the workload length — must come out the same; the size assertion in the
// parity test checks exactly that.
template <typename Cluster, typename RunOne>
std::vector<QueryOutcome> drive_workload(Cluster& c, RunOne run_one) {
  std::vector<QueryOutcome> outs;
  for (uint32_t i = 0; i < kPreKill; ++i) outs.push_back(run_one(c));
  c.kill_node(kVictim);
  for (uint32_t i = 0; i < 30 && c.frontend().failures_detected() == 0; ++i) {
    outs.push_back(run_one(c));
  }
  for (uint32_t i = 0; i < kPostKill; ++i) outs.push_back(run_one(c));
  return outs;
}

TEST(TcpClusterTest, InProcAndTcpReportIdenticalOutcomes) {
  EmulatedCluster inproc(inproc_config());
  auto virt = drive_workload(inproc, run_one_inproc);

  TcpCluster tcp(tcp_config());
  auto wall = drive_workload(tcp, run_one_tcp);

  ASSERT_EQ(virt.size(), wall.size());
  for (size_t i = 0; i < virt.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ASSERT_NE(wall[i].id, 0u) << "TCP query timed out";
    EXPECT_EQ(wall[i].complete, virt[i].complete);
    EXPECT_EQ(wall[i].matches, virt[i].matches);
    EXPECT_DOUBLE_EQ(wall[i].harvest, virt[i].harvest);
    EXPECT_EQ(wall[i].parts_sent, virt[i].parts_sent);
    EXPECT_EQ(wall[i].retries, virt[i].retries);
  }

  // Both substrates detected the induced failure by sub-query timeout.
  EXPECT_GT(inproc.frontend().failures_detected(), 0u);
  EXPECT_EQ(tcp.frontend().failures_detected(),
            inproc.frontend().failures_detected());

  // Byte-protocol parity: the two worlds exchanged the same messages and
  // the same payload bytes (the Table 6.2-style accounting).
  EXPECT_EQ(tcp.messages_sent(), inproc.network().messages_sent());
  EXPECT_EQ(tcp.bytes_sent(), inproc.network().bytes_sent());
}

TEST(TcpClusterTest, QueriesCompleteOverLoopback) {
  TcpCluster cluster(tcp_config(4, 4, 40'000));
  auto outs = cluster.run_queries(10);
  for (const auto& out : outs) {
    ASSERT_NE(out.id, 0u);
    EXPECT_TRUE(out.complete);
    EXPECT_DOUBLE_EQ(out.harvest, 1.0);
    EXPECT_EQ(out.parts_sent, 4u);
  }
  EXPECT_EQ(cluster.frontend().queries_completed(), 10u);
  EXPECT_GT(cluster.messages_sent(), 0u);
  EXPECT_GT(cluster.bytes_sent(), 0u);
}

TEST(TcpClusterTest, FailureDetectedByTimeoutAndMaskedBySplit) {
  TcpCluster cluster(tcp_config(8, 4, 88'000));
  auto warm = cluster.run_queries(3);
  ASSERT_TRUE(warm.back().complete);

  cluster.kill_node(1);
  // With 8 nodes and p = 4, not every query touches the victim; run until
  // one does and the timeout + §4.4 split path fires.
  QueryOutcome detect;
  bool found = false;
  for (int i = 0; i < 20 && !found; ++i) {
    detect = cluster.run_query();
    ASSERT_NE(detect.id, 0u) << "query must complete despite the dead node";
    found = detect.retries > 0;
  }
  ASSERT_TRUE(found) << "some query must hit the dead node and split";
  EXPECT_TRUE(detect.complete);
  EXPECT_DOUBLE_EQ(detect.harvest, 1.0);
  EXPECT_GT(detect.parts_sent, 4u) << "failure split adds parts";
  EXPECT_GT(cluster.frontend().failures_detected(), 0u);
  EXPECT_GT(cluster.messages_dropped(), 0u)
      << "frames to the crashed endpoint are black-holed";

  // Later queries plan around the dead node.
  QueryOutcome after = cluster.run_query();
  ASSERT_NE(after.id, 0u);
  EXPECT_TRUE(after.complete);
}

TEST(TcpClusterTest, PReconfigurationOverTheWire) {
  auto cfg = tcp_config(4, 4, 40'000);
  cfg.node_proto.fetch_bandwidth = 1e9;  // keep the wall-clock fetch short
  TcpCluster cluster(cfg);

  // Decrease p: the ordering view epoch goes out over TCP, completions
  // come back, and safe_p flips only after every node confirmed.
  cluster.change_p(2);
  EXPECT_EQ(cluster.safe_p(), 4u);
  EXPECT_EQ(cluster.target_p(), 2u);
  ASSERT_TRUE(cluster.driver().run_until(
      [&] { return cluster.safe_p() == 2; }, 15.0))
      << "fetch completions over TCP must flip safe_p";
  // The front-end keeps planning (safely) at the old p until the
  // completion epoch reaches its mirror over the socket.
  ASSERT_TRUE(cluster.driver().run_until(
      [&] { return cluster.frontend().safe_p() == 2; }, 15.0))
      << "the completion epoch must reach the front-end's mirror";

  QueryOutcome out = cluster.run_query();
  ASSERT_NE(out.id, 0u);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.parts_sent, 2u);

  // Increase is immediately safe at the control plane; nodes may only
  // drop surplus data once every front-end acked the raise (drop gate).
  cluster.change_p(4);
  EXPECT_EQ(cluster.safe_p(), 4u);
  ASSERT_TRUE(cluster.driver().run_until(
      [&] { return cluster.frontend().safe_p() == 4; }, 15.0));
  ASSERT_TRUE(cluster.driver().run_until(
      [&] { return !cluster.control().drop_gate_pending(); }, 15.0))
      << "front-end acks over TCP must clear the drop gate";
  out = cluster.run_query();
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.parts_sent, 4u);
}

// Real scans burn real CPU, so every engine-backed node shares one pool
// with one lane per core the reactor threads leave free (capped by the
// nodes' total lanes). Engine-less nodes answer from their analytic lanes
// and own no thread at all.
TEST(TcpClusterTest, RealScansShareOnePoolModeledNodesOwnNoThreads) {
  constexpr uint32_t kWorkers = 4, kShards = 2;
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  const size_t cpus = static_cast<size_t>(CPU_COUNT(&set));
  const size_t shared_lanes = std::min<size_t>(
      kNodes * kWorkers, cpus > kShards ? cpus - kShards : 1);

  TcpClusterConfig real = tcp_config();
  real.real_matching = true;
  real.engine.corpus_items = 1'500;
  real.dataset_size = real.engine.corpus_items;
  real.node_workers = kWorkers;
  real.reactor_shards = kShards;
  TcpCluster scanning(real);
  EXPECT_EQ(scanning.pool_threads(), shared_lanes);
  EXPECT_EQ(scanning.metrics().snapshot().get("pool.threads", -1),
            static_cast<double>(shared_lanes));
  EXPECT_TRUE(scanning.run_query().complete);

  TcpClusterConfig modeled = tcp_config();
  modeled.node_workers = kWorkers;
  modeled.reactor_shards = kShards;
  TcpCluster analytic(modeled);
  EXPECT_EQ(analytic.pool_threads(), 0u);
  EXPECT_EQ(analytic.metrics().snapshot().get("pool.threads", -1), 0.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(analytic.run_query().complete) << "query " << i;
  }
}

// Both harnesses register one metrics table; only the TCP substrate adds
// gauges of its own (driver.* and pool.*). Ingestion is on so the ingest.*
// series are compared too.
TEST(TcpClusterTest, HarnessesExportTheSameMetricNames) {
  auto with_ingest = [](auto cfg) {
    cfg.enable_ingest = true;
    cfg.engine.corpus_items = 1'500;
    cfg.dataset_size = cfg.engine.corpus_items;
    return cfg;
  };
  EmulatedCluster emulated(with_ingest(inproc_config()));
  TcpCluster tcp(with_ingest(tcp_config()));

  std::vector<std::string> emulated_names;
  for (const auto& [name, value] : emulated.metrics().snapshot().values) {
    emulated_names.push_back(name);
  }
  std::vector<std::string> tcp_names;
  for (const auto& [name, value] : tcp.metrics().snapshot().values) {
    if (name.starts_with("driver.") || name.starts_with("pool.")) continue;
    tcp_names.push_back(name);
  }
  EXPECT_EQ(tcp_names, emulated_names);
  EXPECT_GE(tcp.metrics().snapshot().get("ingest.ops_applied", -1), 0);
  EXPECT_GT(tcp.metrics().snapshot().get("engine.build_s", -1), 0);
  EXPECT_GT(emulated.metrics().snapshot().get("engine.build_s", -1), 0);
}

}  // namespace
}  // namespace roar::cluster
