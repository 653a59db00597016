// Integration tests for the emulated cluster: end-to-end queries, failure
// masking, dynamic reconfiguration, updates, joins, and energy accounting.
#include "cluster/emulated_cluster.h"

#include <gtest/gtest.h>

#include "cluster/node.h"
#include "net/event_loop.h"
#include "net/inproc.h"

namespace roar::cluster {
namespace {

ClusterConfig small_config(uint32_t p = 4, uint32_t nodes = 12) {
  ClusterConfig cfg;
  cfg.classes = {{"uniform", nodes, 1.0}};
  cfg.dataset_size = 1'000'000;
  cfg.p = p;
  cfg.seed = 11;
  return cfg;
}

TEST(ProtocolTest, AllMessagesRoundTrip) {
  SubQueryMsg sq;
  sq.query_id = 42;
  sq.part_id = 3;
  sq.point = RingId::from_double(0.5);
  sq.window_begin = RingId::from_double(0.25);
  sq.window_end = RingId::from_double(0.5);
  sq.pq = 8;
  sq.share = 0.125;
  auto sq2 = SubQueryMsg::decode(sq.encode());
  ASSERT_TRUE(sq2.has_value());
  EXPECT_EQ(sq2->query_id, 42u);
  EXPECT_EQ(sq2->pq, 8u);
  EXPECT_EQ(sq2->point, sq.point);

  SubQueryReplyMsg rep;
  rep.query_id = 42;
  rep.part_id = 3;
  rep.scanned = 12345;
  rep.matches = 7;
  rep.service_s = 0.25;
  auto rep2 = SubQueryReplyMsg::decode(rep.encode());
  ASSERT_TRUE(rep2.has_value());
  EXPECT_EQ(rep2->scanned, 12345u);

  ViewDeltaMsg vd;
  vd.delta.epoch = 7;
  vd.delta.full = false;
  vd.delta.target_p = 4;
  vd.delta.safe_p = 8;
  vd.delta.storage_p = 8;
  vd.delta.upserts = {{3, RingId::from_double(0.25), 1.5, true},
                      {9, RingId::from_double(0.75), 0.5, false}};
  vd.delta.removes = {4};
  vd.delta.pending = {3, 9};
  auto vd2 = ViewDeltaMsg::decode(vd.encode());
  ASSERT_TRUE(vd2.has_value());
  EXPECT_EQ(vd2->delta.epoch, 7u);
  EXPECT_EQ(vd2->delta.upserts.size(), 2u);
  EXPECT_EQ(vd2->delta.upserts[1].id, 9u);
  EXPECT_FALSE(vd2->delta.upserts[1].alive);
  EXPECT_EQ(vd2->delta.removes, std::vector<NodeId>{4});
  EXPECT_EQ(vd2->delta.pending, (std::vector<NodeId>{3, 9}));

  ViewAckMsg va;
  va.subscriber = frontend_address(1);
  va.epoch = 7;
  va.completed = 42;
  va.p99_s = 0.125;
  auto va2 = ViewAckMsg::decode(va.encode());
  ASSERT_TRUE(va2.has_value());
  EXPECT_EQ(va2->subscriber, frontend_address(1));
  EXPECT_EQ(va2->completed, 42u);

  ViewPullMsg vp;
  vp.subscriber = node_address(3);
  vp.have_epoch = 6;
  auto vp2 = ViewPullMsg::decode(vp.encode());
  ASSERT_TRUE(vp2.has_value());
  EXPECT_EQ(vp2->have_epoch, 6u);

  FetchCompleteMsg fc;
  fc.node = 9;
  fc.new_p = 4;
  auto fc2 = FetchCompleteMsg::decode(fc.encode());
  ASSERT_TRUE(fc2.has_value());
  EXPECT_EQ(fc2->node, 9u);
}

TEST(ProtocolTest, DecodeRejectsWrongTypeAndGarbage) {
  SubQueryMsg sq;
  auto bytes = sq.encode();
  EXPECT_FALSE(SubQueryReplyMsg::decode(bytes).has_value());
  EXPECT_FALSE(SubQueryMsg::decode({}).has_value());
  net::Bytes garbage{99, 1, 2, 3};
  EXPECT_FALSE(peek_type(garbage).has_value());
  net::Bytes truncated(bytes.begin(), bytes.begin() + 5);
  EXPECT_FALSE(SubQueryMsg::decode(truncated).has_value());
}

// The analytic pipeline is W FIFO lanes wide (the paper's §5.7 thread
// sweep): two sub-queries arriving in the same instant finish together on
// two lanes, and one service time apart on one lane.
TEST(NodeRuntimeTest, AnalyticLanesServeSimultaneousSubqueries) {
  constexpr double kLatency = 100e-6;
  auto reply_times = [&](size_t lanes, double& service) {
    net::EventLoop loop;
    net::InProcNetwork net{loop, kLatency, 1};
    NodeParams params;
    params.id = 1;
    NodeRuntime node(net, params, 1'000'000);
    node.set_lanes(lanes);
    node.start();
    constexpr net::Address kFrontend = 50;
    std::vector<double> at;
    net.bind(kFrontend, [&](net::Address, net::Payload payload) {
      auto reply = SubQueryReplyMsg::decode(payload);
      if (!reply) return;
      at.push_back(loop.now());
      service = reply->service_s;
    });
    for (uint32_t part = 0; part < 2; ++part) {
      SubQueryMsg sq;  // whole ring: the full dataset's service time
      sq.query_id = 1;
      sq.part_id = part;
      net.send(kFrontend, node.address(), sq.encode());
    }
    loop.run_all();
    return at;
  };

  double s = 0.0;
  std::vector<double> two = reply_times(2, s);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_GT(s, 0.0);
  const double t = kLatency;  // both arrive at the node at t
  EXPECT_NEAR(two[0], t + s + kLatency, 1e-9);
  EXPECT_NEAR(two[1], t + s + kLatency, 1e-9);

  std::vector<double> one = reply_times(1, s);
  ASSERT_EQ(one.size(), 2u);
  EXPECT_NEAR(one[0], t + s + kLatency, 1e-9);
  EXPECT_NEAR(one[1], t + 2 * s + kLatency, 1e-9);
}

TEST(ClusterTest, QueriesCompleteAndCoverDataset) {
  EmulatedCluster cluster(small_config());
  uint32_t done = cluster.run_queries(20.0, 50);
  EXPECT_EQ(done, 50u);
  EXPECT_EQ(cluster.delays().count(), 50u);
  EXPECT_GT(cluster.delays().mean(), 0.0);
  // Every query scans the entire dataset exactly once: total scanned
  // across nodes ≈ queries × dataset.
  uint64_t scanned = 0;
  for (NodeId id : cluster.node_ids()) {
    scanned += cluster.node(id).subqueries_served();
  }
  EXPECT_GE(scanned, 50u * 4u);  // p sub-queries per query
}

TEST(ClusterTest, HigherPReducesDelayAtLowLoad) {
  auto lo = small_config(2, 16);
  auto hi = small_config(8, 16);
  EmulatedCluster c_lo(lo), c_hi(hi);
  c_lo.run_queries(5.0, 40);
  c_hi.run_queries(5.0, 40);
  EXPECT_LT(c_hi.delays().mean(), c_lo.delays().mean());
}

TEST(ClusterTest, FailureMaskedByTimeoutAndSplit) {
  auto cfg = small_config(4, 12);
  // Prompt but not hair-trigger detection: with factor 1.5 the post-crash
  // backlog on the dead node's neighbours can false-timeout them too, and
  // a query whose split straddles two mirror-dead nodes returns partial.
  cfg.frontend.timeout_factor = 2.0;
  cfg.frontend.timeout_margin_s = 0.1;
  EmulatedCluster cluster(cfg);
  cluster.run_queries(20.0, 20);  // warm estimates
  cluster.kill_node(3);
  uint32_t done = cluster.run_queries(20.0, 60);
  EXPECT_EQ(done, 60u) << "queries must complete despite the dead node";
  EXPECT_GT(cluster.frontend().failures_detected(), 0u);
}

TEST(ClusterTest, IncreasePIsImmediate) {
  EmulatedCluster cluster(small_config(4, 12));
  cluster.change_p(6);
  EXPECT_EQ(cluster.safe_p(), 6u);
  uint32_t done = cluster.run_queries(10.0, 30);
  EXPECT_EQ(done, 30u);
}

TEST(ClusterTest, DecreasePWaitsForFetches) {
  EmulatedCluster cluster(small_config(6, 12));
  cluster.change_p(3);
  // Not yet safe: downloads in progress.
  EXPECT_EQ(cluster.safe_p(), 6u);
  EXPECT_EQ(cluster.target_p(), 3u);
  // Queries keep working during the transition at the old p.
  uint32_t done = cluster.run_queries(10.0, 20);
  EXPECT_EQ(done, 20u);
  // Let downloads complete.
  cluster.loop().run_until(cluster.now() + 300.0);
  EXPECT_EQ(cluster.safe_p(), 3u);
  done = cluster.run_queries(10.0, 20);
  EXPECT_EQ(done, 20u);
}

TEST(ClusterTest, RepeatedDecreaseAfterIncreaseRedownloads) {
  // p 6->3 completes (every node fetches its extended arc); p 3->6 drops
  // the surplus again; a second 6->3 must re-download. A node must never
  // instantly re-confirm off the stale credit of the first decrease —
  // that would flip safe_p onto arcs nobody holds.
  EmulatedCluster c(small_config(6, 12));
  c.change_p(3);
  c.loop().run_until(c.now() + 300.0);
  ASSERT_EQ(c.safe_p(), 3u);

  c.change_p(6);  // increase: safe at once, drop gate clears in ~ms
  c.loop().run_until(c.now() + 1.0);
  ASSERT_EQ(c.safe_p(), 6u);
  ASSERT_FALSE(c.control().reconfig_busy());

  c.change_p(3);
  // Far less than the ~2.3 s modeled download: still unsafe.
  c.loop().run_until(c.now() + 0.5);
  EXPECT_EQ(c.safe_p(), 6u)
      << "second decrease must wait on fresh downloads";
  c.loop().run_until(c.now() + 300.0);
  EXPECT_EQ(c.safe_p(), 3u);
}

TEST(ClusterTest, CrashDuringFetchDoesNotConfirmOffTheStaleTimer) {
  // A node crashes mid-§4.5-download and revives: its revival pull
  // re-derives the fetch duty and restarts the download from scratch.
  // The ORIGINAL attempt's completion timer is still in the clock; it
  // must not complete the restarted fetch early — that would flip
  // safe_p before the re-download finished.
  auto cfg = small_config(6, 12);
  cfg.node_proto.fetch_bandwidth = 4e6;  // 1/6 of 1M objs -> ~29.2 s
  EmulatedCluster c(cfg);
  double t0 = c.now();
  c.change_p(3);  // every node fetches for ~29.2 s
  c.loop().run_until(t0 + 5.0);
  c.kill_node(2);
  c.loop().run_until(t0 + 8.0);
  c.revive_node(2);  // in place: re-derives the fetch, done ~t0+37
  // All other nodes confirm ~t0+29; node 2's stale timer would fire
  // there too. With the generation guard, safe_p must still be 6.
  c.loop().run_until(t0 + 33.0);
  EXPECT_EQ(c.safe_p(), 6u)
      << "restarted fetch must not be completed by the stale timer";
  c.loop().run_until(t0 + 45.0);
  EXPECT_EQ(c.safe_p(), 3u);
}

TEST(ClusterTest, DecreaseWithNoLiveConfirmersCommitsVacuously) {
  // Every node dead when a decrease is ordered: there is nobody to fetch,
  // the §4.5 controller completes the change immediately, and the control
  // plane must commit it — storage_p follows safe_p with no gate pending.
  EmulatedCluster c(small_config(4, 4));
  for (NodeId id = 0; id < 4; ++id) c.kill_node(id);
  uint32_t before = c.control().p_changes_committed();
  c.change_p(2);
  EXPECT_EQ(c.safe_p(), 2u);
  EXPECT_EQ(c.control().storage_p(), 2u);
  EXPECT_FALSE(c.control().reconfig_busy());
  EXPECT_EQ(c.control().p_changes_committed(), before + 1);
}

TEST(ClusterTest, UpdatesConsumeCapacity) {
  // §7.3.4: every ingest op a replica applies charges update_cost_s of
  // its matching capacity, so queries queue behind the update stream.
  auto cfg = small_config(4, 8);
  cfg.enable_ingest = true;
  cfg.engine.corpus_items = 2'000;
  EmulatedCluster with(cfg), without(cfg);
  with.ingest_stream(400.0, 2'000);
  with.run_queries(10.0, 40);
  without.run_queries(10.0, 40);
  EXPECT_GT(with.delays().mean(), without.delays().mean());
  uint64_t updates = 0;
  for (NodeId id : with.node_ids()) {
    updates += with.node(id).updates_applied();
  }
  EXPECT_GT(updates, 0u);
}

TEST(ClusterTest, JoinedNodeServesAfterWarmup) {
  EmulatedCluster cluster(small_config(4, 8));
  NodeId fresh = cluster.add_node(1.0);
  cluster.loop().run_until(cluster.now() + 120.0);  // warmup passes
  cluster.run_queries(20.0, 100);
  EXPECT_GT(cluster.node(fresh).subqueries_served(), 0u)
      << "new node should receive sub-queries once loaded";
}

TEST(ClusterTest, InPlaceReviveRestoresFullHarvest) {
  // Two nodes, p=2: the dead node's window cannot be straddled, so
  // harvest drops — and recovers the moment the node revives in place
  // (its data survived the crash; no re-download needed).
  ClusterConfig cfg;
  cfg.classes = {{"uniform", 2, 1.0}};
  cfg.dataset_size = 100'000;
  cfg.p = 2;
  cfg.seed = 22;
  cfg.frontend.timeout_factor = 1.5;
  cfg.frontend.timeout_margin_s = 0.05;
  EmulatedCluster c(cfg);
  c.run_queries(5.0, 5);
  c.kill_node(1);
  c.run_queries(5.0, 5);  // front-end discovers the failure

  QueryOutcome degraded;
  c.frontend().submit([&](const QueryOutcome& o) { degraded = o; });
  c.loop().run_until(c.now() + 120.0);
  ASSERT_FALSE(degraded.complete);

  c.revive_node(1);
  // The revival's view epoch reaches the front-end a network latency
  // later (the control plane is distributed now, not a direct call).
  c.loop().run_until(c.now() + 0.01);
  QueryOutcome recovered;
  c.frontend().submit([&](const QueryOutcome& o) { recovered = o; });
  c.loop().run_until(c.now() + 120.0);
  EXPECT_TRUE(recovered.complete);
  EXPECT_DOUBLE_EQ(recovered.harvest, 1.0);
}

TEST(ClusterTest, ReviveAfterCleanupReloadsLikeAFreshJoin) {
  // Once long-term cleanup has merged a dead node's range away, a revival
  // is a history-rejoin: the node must re-download its arc (§4.3) before
  // the membership server pushes it back into service.
  EmulatedCluster c(small_config(4, 8));
  c.run_queries(10.0, 10);
  c.kill_node(2);
  c.run_queries(10.0, 20);  // discovery by timeout
  c.remove_dead_nodes();
  c.loop().run_until(c.now() + 0.01);  // deliver the removal epoch
  c.revive_node(2);
  c.loop().run_until(c.now() + 0.01);  // deliver the rejoin epoch
  // The rejoining node is published as a (dead) member while its §4.3
  // download runs: it must stay out of service until its data loads.
  const core::Ring& mirror = c.frontend().ring();
  EXPECT_TRUE(!mirror.contains(2) || !mirror.node(2).alive)
      << "rejoining node must stay out of service until its data loads";
  c.loop().run_until(c.now() + 120.0);  // warmup passes
  c.run_queries(20.0, 60);
  EXPECT_TRUE(c.frontend().ring().contains(2));
  EXPECT_GT(c.node(2).subqueries_served(), 0u)
      << "reloaded node should serve sub-queries again";
}

TEST(ClusterTest, BusyFractionsRoughlyBalanced) {
  EmulatedCluster cluster(small_config(4, 12));
  cluster.run_queries(25.0, 200);
  auto busy = cluster.node_busy_fractions();
  double mx = *std::max_element(busy.begin(), busy.end());
  double mn = *std::min_element(busy.begin(), busy.end());
  EXPECT_GT(mn, 0.0);
  EXPECT_LT(mx / std::max(mn, 1e-9), 4.0);
}

TEST(ClusterTest, EnergyGrowsWithWork) {
  EmulatedCluster idle(small_config(4, 8));
  EmulatedCluster busy(small_config(4, 8));
  idle.loop().run_until(idle.now() + 10.0);
  busy.run_queries(40.0, 300);
  busy.loop().run_until(busy.now() + 0.001);
  double t_busy = busy.now();
  // Compare energy per second: the busy cluster burns more than idle.
  double e_idle = idle.energy_joules() / 10.0;
  double e_busy = busy.energy_joules() / t_busy;
  EXPECT_GT(e_busy, e_idle);
}

TEST(ClusterTest, HeterogeneousSpeedEstimatesConverge) {
  ClusterConfig cfg;
  cfg.classes = {{"fast", 4, 2.0}, {"slow", 4, 0.5}};
  cfg.dataset_size = 1'000'000;
  cfg.p = 4;
  cfg.seed = 5;
  EmulatedCluster cluster(cfg);
  cluster.run_queries(20.0, 300);
  // Frontend EWMA should reflect the 4x true rate difference.
  double fast_rate = cluster.frontend().estimated_rate(0);
  double slow_rate = cluster.frontend().estimated_rate(4);
  EXPECT_GT(fast_rate, 2.0 * slow_rate);
}

TEST(ClusterTest, BreakdownComponentsAreSane) {
  EmulatedCluster cluster(small_config(4, 8));
  QueryOutcome last;
  cluster.frontend().submit([&](const QueryOutcome& out) { last = out; });
  cluster.loop().run_until(cluster.now() + 60.0);
  ASSERT_TRUE(last.complete);
  EXPECT_GT(last.breakdown.service_s, 0.0);
  EXPECT_GT(last.breakdown.network_s, 0.0);
  EXPECT_GE(last.breakdown.schedule_s, 0.0);
  EXPECT_GE(last.breakdown.total_s, last.breakdown.service_s);
}

}  // namespace
}  // namespace roar::cluster
