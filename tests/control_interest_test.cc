// Interest-scoped dissemination, interest resubscription, and relay-tree
// crash repair. Small-N companions to the `scale`-labeled 1000-node run in
// control_scale_test.cc: every control-plane mechanism the scale gate
// relies on is exercised here in the PR tier.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/scenario.h"

namespace roar::cluster {
namespace {

ClusterConfig interest_config(uint32_t nodes, uint32_t p,
                              uint32_t frontends = 1) {
  ClusterConfig cfg;
  cfg.classes = {{"interest", nodes, 1.0}};
  cfg.dataset_size = 100'000;
  cfg.p = p;
  cfg.frontends = frontends;
  cfg.seed = 31;
  return cfg;
}

uint32_t live_nodes_at_epoch(EmulatedCluster& c, uint64_t epoch) {
  uint32_t n = 0;
  for (NodeId id : c.node_ids()) {
    if (c.node(id).alive() && c.node(id).view_epoch() == epoch) ++n;
  }
  return n;
}

uint32_t live_nodes(EmulatedCluster& c) {
  uint32_t n = 0;
  for (NodeId id : c.node_ids()) {
    if (c.node(id).alive()) ++n;
  }
  return n;
}

TEST(InterestScopeTest, NarrowWaveSkipsUninterestedNodes) {
  // p=16 keeps interest arcs narrow (~1/16 of the ring plus margin), and
  // tree_divisor=1 makes every non-broad wave take the sliced path, so a
  // single boundary move must reach only the nodes whose arcs it touches.
  auto cfg = interest_config(64, 16);
  cfg.tree_divisor = 1;
  EmulatedCluster c(cfg);
  c.loop().run_until(c.now() + 1.0);
  ASSERT_EQ(live_nodes_at_epoch(c, c.control().epoch()), 64u)
      << "boot must converge every node";

  // Speed up one node and run a single balance round: only its two
  // adjacent boundaries exceed the 10% threshold, so the wave touches a
  // couple of positions on an otherwise converged ring.
  const core::Ring& ring = c.membership().ring(0);
  NodeId moved = ring.nodes().front().id;
  NodeId succ = ring.successor(moved);
  c.membership().update_speed(moved, 4.0);
  uint64_t skips0 = c.control().interest_skips();
  ASSERT_GT(c.balance_round(), 0.0) << "speed bump must trigger a move";
  c.loop().run_until(c.now() + 0.05);
  uint64_t epoch = c.control().epoch();
  EXPECT_GT(c.control().interest_skips(), skips0)
      << "a narrow wave must skip uninterested subscribers";
  uint32_t reached = live_nodes_at_epoch(c, epoch);
  EXPECT_GT(reached, 0u);
  EXPECT_LT(reached, 64u) << "the wave must not have been broadcast";
  // Exactness: the nodes whose arcs the boundary move touches — the
  // moved node and its successor — must have seen the wave.
  EXPECT_EQ(c.node(moved).view_epoch(), epoch);
  EXPECT_EQ(c.node(succ).view_epoch(), epoch);
  // Front-ends register full interest: they see every epoch.
  EXPECT_EQ(c.frontend().view_epoch(), epoch);

  // A broad wave (p change) goes to everyone and catches the skipped
  // nodes up — the compacted log is not interest-filtered.
  c.change_p(17);
  c.loop().run_until(c.now() + 0.5);
  EXPECT_EQ(live_nodes_at_epoch(c, c.control().epoch()), 64u)
      << "a broad wave must reconverge all nodes";

  InvariantChecker chk(c, 31);
  chk.check("after broad wave");
  chk.check_view_converged("after broad wave");
  for (const auto& v : chk.violations()) {
    ADD_FAILURE() << v.context << ": " << v.detail;
  }
}

TEST(InterestScopeTest, ResubscribesOnRangeGrowthAndPChange) {
  // Interest registration carries slack, so small drifts don't re-send;
  // a range that outgrows the slack (six consecutive ring neighbours
  // leave) or a p change that widens the needed back-arc must.
  EmulatedCluster c(interest_config(64, 16));
  c.loop().run_until(c.now() + 1.0);

  // Leave six ring-consecutive nodes: their shared successor's range
  // grows by ~6/64 of the circle, past the 1/16 registration slack.
  // Count registrations over the survivor set only (node_ids() drops
  // the dead, which would skew a whole-cluster sum).
  std::vector<NodeId> leavers;
  for (const auto& rn : c.frontend().ring().nodes()) {
    if (leavers.size() == 6) break;
    leavers.push_back(rn.id);
  }
  ASSERT_EQ(leavers.size(), 6u);
  std::vector<NodeId> survivors;
  for (NodeId id : c.node_ids()) {
    if (std::find(leavers.begin(), leavers.end(), id) == leavers.end()) {
      survivors.push_back(id);
    }
  }
  auto survivor_interests = [&] {
    uint64_t s = 0;
    for (NodeId id : survivors) s += c.node(id).interests_sent();
    return s;
  };
  uint64_t s0 = survivor_interests();
  ASSERT_GT(s0, 0u) << "every node registers interest at boot";
  for (NodeId id : leavers) c.leave_node(id);
  c.loop().run_until(c.now() + 0.5);
  uint64_t s1 = survivor_interests();
  EXPECT_GT(s1, s0) << "range growth past the slack must re-register";

  // p 16 -> 6 widens every needed back-arc past the registered 2/16
  // slack: every survivor re-registers on the order wave.
  c.change_p(6);
  c.loop().run_until(c.now() + 300.0);
  ASSERT_EQ(c.safe_p(), 6u);
  uint64_t s2 = survivor_interests();
  EXPECT_GE(s2, s1 + survivors.size())
      << "a wider replication arc must re-register everywhere";

  InvariantChecker chk(c, 7);
  chk.check("after reconfigure");
  chk.check_view_converged("after reconfigure");
  for (const auto& v : chk.violations()) {
    ADD_FAILURE() << v.context << ": " << v.detail;
  }
}

TEST(RelayTreeTest, InteriorRootCrashMidWaveRepairsViaResync) {
  // A relay root dies after the control plane hands it a wave but before
  // it forwards: its whole subtree misses the epoch. The retransmit tick
  // must spot the silent root (expected > acked) and repair the branch.
  auto cfg = interest_config(32, 8);
  cfg.relay_fanout = 4;
  EmulatedCluster c(cfg);
  c.loop().run_until(c.now() + 1.0);
  ASSERT_EQ(live_nodes_at_epoch(c, c.control().epoch()), 32u);

  auto roots = c.control().relay_roots();
  ASSERT_FALSE(roots.empty()) << "boot waves must have built the tree";
  auto biggest = std::max_element(
      roots.begin(), roots.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  ASSERT_GT(biggest->second, 0u) << "need an interior root to crash";
  NodeId victim = static_cast<NodeId>(biggest->first - node_address(0));

  uint64_t e0 = c.control().epoch();
  c.change_p(9);           // broad wave, now in flight to the roots
  c.kill_node(victim);     // dies before it can forward
  c.loop().run_until(c.now() + 2.0);  // past several retransmit ticks
  uint64_t epoch = c.control().epoch();
  ASSERT_GT(epoch, e0);
  EXPECT_EQ(live_nodes_at_epoch(c, epoch), live_nodes(c))
      << "resync must repair the orphaned subtree";
  for (NodeId id : c.node_ids()) {
    if (!c.node(id).alive()) continue;
    EXPECT_LE(c.control().acked_epoch(node_address(id)),
              c.node(id).view_epoch())
        << "node " << id << ": aggregated ack watermark ran ahead";
  }

  c.remove_dead_nodes();
  c.loop().run_until(c.now() + 1.0);
  EXPECT_EQ(c.control().max_epoch_lag(), 0u)
      << "removing the dead root must clear the laggard set";

  InvariantChecker chk(c, 9);
  chk.check("after relay-root crash repair");
  chk.check_view_converged("after relay-root crash repair");
  for (const auto& v : chk.violations()) {
    ADD_FAILURE() << v.context << ": " << v.detail;
  }
}

TEST(InterestScopeTest, ModerateScaleConvergesSubQuadratic) {
  // PR-tier smoke of the scale gate: 200 nodes boot, converge, and a
  // p decrease commits with far fewer control sends than a per-wave
  // broadcast would cost.
  EmulatedCluster c(interest_config(200, 8, 2));
  c.loop().run_until(c.now() + 2.0);
  uint64_t boot_epoch = c.control().epoch();
  ASSERT_EQ(live_nodes_at_epoch(c, boot_epoch), 200u);
  EXPECT_LT(c.control().deltas_sent(), 10u * 200u)
      << "boot must not cost quadratic control sends";

  uint64_t sends0 = c.control().deltas_sent();
  c.change_p(7);
  c.loop().run_until(c.now() + 300.0);
  ASSERT_EQ(c.safe_p(), 7u);
  ASSERT_EQ(c.control().p_changes_committed(), 1u);
  ASSERT_EQ(live_nodes_at_epoch(c, c.control().epoch()), 200u);

  uint64_t waves = c.control().epoch() - boot_epoch;
  uint64_t sends = c.control().deltas_sent() - sends0;
  ASSERT_GT(waves, 0u);
  // Broadcast would push every wave to all ~202 subscribers.
  EXPECT_GE(waves * 202u, 10u * sends)
      << "decrease wave must be >=10x cheaper than broadcast";

  InvariantChecker chk(c, 11);
  chk.check("after decrease");
  chk.check_view_converged("after decrease");
  for (const auto& v : chk.violations()) {
    ADD_FAILURE() << v.context << ": " << v.detail;
  }
}

}  // namespace
}  // namespace roar::cluster
