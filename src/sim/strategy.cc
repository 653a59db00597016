#include "sim/strategy.h"

#include <algorithm>
#include <numeric>

namespace roar::sim {

// ------------------------------------------------------------------ PTN

PtnStrategy::PtnStrategy(uint32_t p) : p_(p) {}

void PtnStrategy::prepare(const ServerFarm& farm) {
  clusters_.assign(p_, {});
  // Greedy balanced partition: assign fastest-first to the cluster with
  // the least total speed, so clusters are computationally equivalent.
  std::vector<ServerIndex> order(farm.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](ServerIndex a, ServerIndex b) {
    return farm.speed(a) > farm.speed(b);
  });
  std::vector<double> cluster_speed(p_, 0.0);
  for (ServerIndex s : order) {
    uint32_t best = 0;
    for (uint32_t c = 1; c < p_; ++c) {
      if (cluster_speed[c] < cluster_speed[best]) best = c;
    }
    clusters_[best].push_back(s);
    cluster_speed[best] += farm.speed(s);
  }
}

std::vector<SubTask> PtnStrategy::schedule(const ScheduleContext& ctx) {
  FarmEstimator est(ctx.farm, ctx.now, ctx.overhead);
  auto result = core::ptn_schedule(clusters_, ctx.farm.alive_mask(), est);
  std::vector<SubTask> out;
  double share = 1.0 / p_;
  for (core::NodeId s : result.chosen) {
    if (s == core::kInvalidNode) continue;  // dead cluster: partial query
    out.push_back(SubTask{s, share});
  }
  return out;
}

// ------------------------------------------------------------------- SW

SwStrategy::SwStrategy(uint32_t r) : r_(r) {}

void SwStrategy::prepare(const ServerFarm& farm) {
  n_ = farm.size();
}

std::vector<SubTask> SwStrategy::schedule(const ScheduleContext& ctx) {
  uint32_t parts_count = parts();
  double share = 1.0 / parts_count;
  double best_delay = std::numeric_limits<double>::infinity();
  uint32_t best_offset = 0;
  for (uint32_t o = 0; o < r_; ++o) {
    double delay = 0.0;
    bool feasible = true;
    for (uint32_t i = 0; i < parts_count && feasible; ++i) {
      ServerIndex s = (o + i * r_) % n_;
      if (!ctx.farm.alive(s)) {
        // Neighbour fallback: both must be alive; cost them half each.
        ServerIndex pred = (s + n_ - 1) % n_;
        ServerIndex succ = (s + 1) % n_;
        if (!ctx.farm.alive(pred) || !ctx.farm.alive(succ)) {
          feasible = false;
          break;
        }
        delay = std::max(delay, ctx.farm.predict(pred, share / 2, ctx.now) +
                                    ctx.overhead);
        delay = std::max(delay, ctx.farm.predict(succ, share / 2, ctx.now) +
                                    ctx.overhead);
        continue;
      }
      delay = std::max(delay,
                       ctx.farm.predict(s, share, ctx.now) + ctx.overhead);
    }
    if (feasible && delay < best_delay) {
      best_delay = delay;
      best_offset = o;
    }
  }

  std::vector<SubTask> out;
  for (uint32_t i = 0; i < parts_count; ++i) {
    ServerIndex s = (best_offset + i * r_) % n_;
    if (ctx.farm.alive(s)) {
      out.push_back(SubTask{s, share});
    } else {
      ServerIndex pred = (s + n_ - 1) % n_;
      ServerIndex succ = (s + 1) % n_;
      if (ctx.farm.alive(pred) && ctx.farm.alive(succ)) {
        out.push_back(SubTask{pred, share / 2});
        out.push_back(SubTask{succ, share / 2});
      }
    }
  }
  return out;
}

// ----------------------------------------------------------------- ROAR

RoarStrategy::RoarStrategy(uint32_t p, RoarOptions options)
    : p_(p), options_(options) {}

std::string RoarStrategy::name() const {
  std::string n = "ROAR";
  if (options_.rings > 1) {
    n += '-';
    n += std::to_string(options_.rings);
    n += 'r';
  }
  if (options_.pq_factor > 1.0) n += "+pq";
  if (options_.range_adjustment) n += "+adj";
  if (options_.max_splits > 0) n += "+split";
  return n;
}

void RoarStrategy::prepare(const ServerFarm& farm) {
  uint32_t R = std::max<uint32_t>(1, options_.rings);
  rings_.assign(R, core::Ring());
  // Deal servers round-robin to rings; within each ring give each node a
  // range proportional to its estimated speed (§4.6) or equal ranges.
  std::vector<std::vector<ServerIndex>> per_ring(R);
  for (ServerIndex s = 0; s < farm.size(); ++s) {
    per_ring[s % R].push_back(s);
  }
  for (uint32_t k = 0; k < R; ++k) {
    const auto& members = per_ring[k];
    double total = 0.0;
    for (ServerIndex s : members) {
      total += options_.proportional_ranges ? farm.estimated_speed(s) : 1.0;
    }
    // Node i's position = cumulative fraction boundary (it owns the arc
    // ending at its position).
    double acc = 0.0;
    for (ServerIndex s : members) {
      acc += options_.proportional_ranges ? farm.estimated_speed(s) : 1.0;
      RingId pos = RingId::from_double(acc / total);
      // Ring offset avoids inter-ring boundary collisions.
      pos = pos.advanced_raw((static_cast<uint64_t>(k) << 20) + k + 1);
      rings_[k].add_node(s, pos, farm.estimated_speed(s));
    }
  }
}

void RoarStrategy::sync_liveness(const ServerFarm& farm) {
  for (auto& ring : rings_) {
    for (const auto& n : ring.nodes()) {
      if (n.alive != farm.alive(n.id)) {
        ring.set_alive(n.id, farm.alive(n.id));
      }
    }
  }
}

std::vector<SubTask> RoarStrategy::schedule(const ScheduleContext& ctx) {
  sync_liveness(ctx.farm);
  FarmEstimator est(ctx.farm, ctx.now, ctx.overhead);
  uint32_t pq = std::max<uint32_t>(
      p_, static_cast<uint32_t>(p_ * options_.pq_factor + 0.5));

  if (rings_.size() > 1) {
    std::vector<const core::Ring*> ptrs;
    for (const auto& r : rings_) ptrs.push_back(&r);
    auto sched = core::SweepScheduler::schedule_multi(
        std::span<const core::Ring* const>(ptrs.data(), ptrs.size()), pq,
        est, ctx.rng->next_ring_id());
    std::vector<SubTask> out;
    double share = 1.0 / pq;
    for (const auto& [point, node] : sched.assignment) {
      if (node == core::kInvalidNode) continue;
      out.push_back(SubTask{node, share});
    }
    return out;
  }

  auto sched = core::SweepScheduler::schedule(rings_[0], pq, est,
                                              ctx.rng->next_ring_id());
  auto plan = planner_.plan(rings_[0], sched.best_start, pq, p_, *ctx.rng);
  if (options_.range_adjustment) {
    core::adjust_ranges(&plan, rings_[0], p_, est);
  }
  if (options_.max_splits > 0) {
    core::split_slowest(&plan, rings_[0], p_, est, options_.max_splits);
  }
  std::vector<SubTask> out;
  for (const auto& part : plan.parts) {
    if (part.node == core::kInvalidNode) continue;
    out.push_back(SubTask{part.node, part.share});
  }
  return out;
}

// ------------------------------------------------------------------ OPT

void OptStrategy::prepare(const ServerFarm& farm) {
  n_ = farm.size();
}

std::vector<SubTask> OptStrategy::schedule(const ScheduleContext& ctx) {
  double total = ctx.farm.total_speed();
  std::vector<SubTask> out;
  if (total <= 0) return out;
  for (ServerIndex s = 0; s < n_; ++s) {
    if (!ctx.farm.alive(s)) continue;
    out.push_back(SubTask{s, ctx.farm.speed(s) / total});
  }
  return out;
}

}  // namespace roar::sim
