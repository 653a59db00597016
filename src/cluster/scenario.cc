#include "cluster/scenario.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/query_planner.h"

namespace roar::cluster {

namespace {

std::string time_tag(double at) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t=%.3f", at);
  return buf;
}

using WindowKey = std::pair<uint64_t, uint64_t>;  // (begin.raw, end.raw)

WindowKey window_key(RingId begin, RingId end) {
  return {begin.raw(), end.raw()};
}

}  // namespace

// ---------------------------------------------------------------- checker

InvariantChecker::InvariantChecker(EmulatedCluster& cluster, uint64_t seed)
    : cluster_(cluster), rng_(seed) {}

void InvariantChecker::fail(const std::string& context, std::string detail) {
  // Every invariant trip is a flight-recorder anomaly: the tracer renders
  // the recent event timeline + metrics snapshot while the offending
  // state is still current (trace id 0 = whole-cluster trip).
  cluster_.tracer().anomaly(0, context + ": " + detail, cluster_.now());
  violations_.push_back({cluster_.now(), context, std::move(detail)});
}

size_t InvariantChecker::check(const std::string& context) {
  size_t before = violations_.size();
  uint32_t p = cluster_.control().safe_p();
  if (p >= 2) {
    check_plan(context, p);       // the minimum legal partitioning
    check_plan(context, 2 * p);   // any pq >= p must also be exact
  }
  check_reconfig(context);
  check_view(context);
  check_accounting(context);
  check_ingest_safety(context);
  check_queues(context);
  return violations_.size() - before;
}

void InvariantChecker::check_queues(const std::string& context) {
  for (NodeId id : cluster_.node_ids()) {
    const NodeRuntime& node = cluster_.node(id);
    double bound = node.max_backlog_s();
    // The hwm is recorded only at admitted arrivals, so it can never
    // legally exceed the loosest per-class bound (the scavenger share is
    // the widest gate any admitted sub-query passed).
    if (bound > 0 && node.backlog_hwm_s() > bound + 1e-9) {
      fail(context, "node " + std::to_string(id) + " backlog hwm " +
                        std::to_string(node.backlog_hwm_s()) +
                        "s exceeds bound " + std::to_string(bound) + "s");
    }
  }
  for (uint32_t i = 0; i < cluster_.frontend_count(); ++i) {
    const Frontend& fe = cluster_.frontend(i);
    const core::AdmissionController* adm = fe.admission();
    if (!adm) continue;
    size_t cap = adm->params().inflight_cap;
    if (fe.queue_hwm() > cap) {
      fail(context, "frontend " + std::to_string(i) + " in-flight hwm " +
                        std::to_string(fe.queue_hwm()) + " exceeds cap " +
                        std::to_string(cap));
    }
    for (size_t k = 0; k < core::kQueryClasses; ++k) {
      auto c = static_cast<core::QueryClass>(k);
      const auto& st = adm->stats(c);
      if (st.offered != st.admitted + st.shed) {
        fail(context, "frontend " + std::to_string(i) + " class " +
                          core::class_name(c) + " admission leak: offered " +
                          std::to_string(st.offered) + " != admitted " +
                          std::to_string(st.admitted) + " + shed " +
                          std::to_string(st.shed));
      }
    }
  }
}

void InvariantChecker::check_view(const std::string& context) {
  const ControlPlane& control = cluster_.control();
  uint64_t epoch = control.epoch();
  if (epoch < last_control_epoch_) {
    fail(context, "control epoch went backwards");
  }
  last_control_epoch_ = std::max(last_control_epoch_, epoch);

  // storage_p lags safe_p exactly while the drop gate holds front-end
  // acks hostage; at every other moment the levels agree.
  uint32_t storage = control.storage_p(), safe = control.safe_p();
  if (control.drop_gate_pending()) {
    if (storage >= safe) {
      fail(context, "drop gate pending but storage_p " +
                        std::to_string(storage) + " >= safe_p " +
                        std::to_string(safe));
    }
  } else if (storage != safe) {
    fail(context, "no drop gate but storage_p " + std::to_string(storage) +
                      " != safe_p " + std::to_string(safe));
  }

  // The highest level any live node actually stores at: a front-end
  // planning below it would partition queries the nodes no longer hold
  // replication arcs for.
  uint32_t max_node_p = 0;
  for (const auto& n : cluster_.membership().ring(0).nodes()) {
    NodeRuntime& node = cluster_.node(n.id);
    if (!node.alive() || node.range().empty()) continue;
    max_node_p = std::max(max_node_p, node.current_p());
    // Dissemination soundness: a node never applies an epoch the control
    // plane has not published, and the (possibly relay-aggregated)
    // watermark the control plane holds for it never exceeds what the
    // node actually applied — an aggregator that over-reported here could
    // clear the drop gate or the laggard set early.
    if (node.view_epoch() > epoch) {
      fail(context, "node " + std::to_string(n.id) +
                        " view epoch ahead of the control plane");
    }
    uint64_t acked = control.acked_epoch(node_address(n.id));
    if (acked > node.view_epoch()) {
      fail(context, "node " + std::to_string(n.id) +
                        " acked watermark " + std::to_string(acked) +
                        " ahead of its applied epoch " +
                        std::to_string(node.view_epoch()));
    }
  }

  for (uint32_t i = 0; i < cluster_.frontend_count(); ++i) {
    const Frontend& fe = cluster_.frontend(i);
    uint64_t fe_epoch = fe.view_epoch();
    if (fe_epoch > epoch) {
      fail(context, "frontend " + std::to_string(i) +
                        " view epoch ahead of the control plane");
    }
    uint64_t& seen = last_frontend_epoch_[i];
    if (fe_epoch < seen) {
      fail(context, "frontend " + std::to_string(i) +
                        " view epoch went backwards");
    }
    seen = std::max(seen, fe_epoch);
    if (!fe.ready()) continue;  // refuses queries: cannot plan unsafely
    if (max_node_p > 0 && fe.safe_p() < max_node_p) {
      fail(context, "frontend " + std::to_string(i) + " plans at p=" +
                        std::to_string(fe.safe_p()) +
                        " while some node stores at p=" +
                        std::to_string(max_node_p) + " (unsafe p)");
    }
  }
}

size_t InvariantChecker::check_view_converged(const std::string& context) {
  size_t before = violations_.size();
  const ControlPlane& control = cluster_.control();
  net::FaultTransport* ft = cluster_.faults();
  for (uint32_t i = 0; i < cluster_.frontend_count(); ++i) {
    const Frontend& fe = cluster_.frontend(i);
    if (!fe.alive()) continue;  // crashed and never revived
    // A front-end still cut off from the control plane cannot have
    // converged; the heal path (or the retransmit tick) resyncs it.
    if (ft && ft->link_cut(kMembershipAddr, fe.address())) continue;
    if (fe.view_epoch() != control.epoch()) {
      fail(context, "frontend " + std::to_string(i) + " ended on epoch " +
                        std::to_string(fe.view_epoch()) +
                        ", control plane on " +
                        std::to_string(control.epoch()));
    }
  }
  return violations_.size() - before;
}

void InvariantChecker::check_ingest_safety(const std::string& context) {
  const IngestRouter* router = cluster_.ingest();
  if (!router) return;
  auto replicas = cluster_.ingest_replicas();
  for (auto& detail : ingest_safety_report(*router, replicas)) {
    fail(context, "ingest: " + std::move(detail));
  }
  // Applied LSNs only move forward (full-segment resets jump them to the
  // issued LSN, which is itself monotone).
  for (const auto& rep : replicas) {
    for (const auto& [shard, applied] : rep.log->applied()) {
      uint64_t& seen = last_applied_[{shard, rep.node}];
      if (applied < seen) {
        fail(context, "ingest: node " + std::to_string(rep.node) +
                          " shard " + std::to_string(shard) +
                          " applied LSN went backwards (" +
                          std::to_string(seen) + " -> " +
                          std::to_string(applied) + ")");
      }
      seen = std::max(seen, applied);
    }
  }
}

size_t InvariantChecker::check_ingest_converged(const std::string& context) {
  const IngestRouter* router = cluster_.ingest();
  if (!router) return 0;
  size_t before = violations_.size();
  auto replicas = cluster_.ingest_replicas();
  for (auto& detail : ingest_convergence_report(*router, replicas,
                                                /*probe_matches=*/true)) {
    fail(context, "ingest convergence: " + std::move(detail));
  }
  return violations_.size() - before;
}

void InvariantChecker::check_plan(const std::string& context, uint32_t pq) {
  const core::Ring& ring = cluster_.membership().ring(0);
  if (ring.empty() || pq < 2) return;
  uint32_t p = cluster_.control().safe_p();
  bool any_alive = false;
  for (const auto& n : ring.nodes()) any_alive |= n.alive;
  if (!any_alive) return;

  core::QueryPlanner planner;
  RingId start = rng_.next_ring_id();
  auto plan = planner.plan(ring, start, pq, p, rng_);

  // The pq equal responsibility windows the plan must realise exactly —
  // failure splits copy the original window, so even a split plan groups
  // back onto these keys.
  std::map<WindowKey, uint32_t> expected;  // window -> sub-query index
  for (uint32_t i = 0; i < pq; ++i) {
    RingId wb = query_point(start, (i + pq - 1) % pq, pq);
    RingId we = query_point(start, i, pq);
    expected[window_key(wb, we)] = i;
  }

  std::map<WindowKey, std::vector<const core::RoarSubQuery*>> groups;
  double share_sum = 0.0;
  for (const auto& part : plan.parts) {
    WindowKey key = window_key(part.window_begin, part.responsibility_end);
    if (!expected.count(key)) {
      fail(context, "pq=" + std::to_string(pq) +
                        ": sub-query window is not one of the query's " +
                        "equal arcs (split changed the window)");
      continue;
    }
    groups[key].push_back(&part);
    share_sum += part.share;
  }
  for (const auto& [key, idx] : expected) {
    if (!groups.count(key)) {
      fail(context, "pq=" + std::to_string(pq) + ": window " +
                        std::to_string(idx) + " missing from plan");
    }
  }
  if (share_sum < 1.0 - 1e-9 || share_sum > 1.0 + 1e-9) {
    fail(context, "pq=" + std::to_string(pq) + ": plan shares sum to " +
                      std::to_string(share_sum) + ", expected 1");
  }

  // §4.4 harvest bound: a window may be abandoned only when its owner is
  // dead, so planned harvest >= 1 − dead_owner_windows/pq.
  uint32_t dead_owner_windows = 0;
  for (const auto& [key, idx] : expected) {
    RingId end(key.second);
    if (!ring.nodes()[ring.index_in_charge(end)].alive) ++dead_owner_windows;
  }
  double abandoned = 0.0;
  for (const auto& part : plan.parts) {
    if (part.node == core::kInvalidNode) abandoned += part.share;
  }
  double bound = 1.0 - static_cast<double>(dead_owner_windows) / pq;
  if (1.0 - abandoned < bound - 1e-9) {
    fail(context, "pq=" + std::to_string(pq) + ": planned harvest " +
                      std::to_string(1.0 - abandoned) +
                      " below the §4.4 bound " + std::to_string(bound));
  }

  // Exactly-one ownership + storage coverage over sampled objects.
  for (uint32_t t = 0; t < object_samples_; ++t) {
    RingId obj = rng_.next_ring_id();
    uint32_t owners = 0, owner_i = 0;
    for (uint32_t i = 0; i < pq; ++i) {
      if (core::object_matched_by(obj, start, i, pq)) {
        ++owners;
        owner_i = i;
      }
    }
    if (owners != 1) {
      fail(context, "pq=" + std::to_string(pq) + ": object matched by " +
                        std::to_string(owners) + " sub-queries");
      continue;
    }
    RingId wb = query_point(start, (owner_i + pq - 1) % pq, pq);
    RingId we = query_point(start, owner_i, pq);
    auto git = groups.find(window_key(wb, we));
    if (git == groups.end()) continue;  // already flagged as missing
    const auto& parts = git->second;

    Arc repl = core::replication_arc(obj, p);
    if (parts.size() == 1 && parts[0]->node == core::kInvalidNode) {
      // Abandoned window: legitimate only if its owner really is dead.
      if (ring.nodes()[ring.index_in_charge(we)].alive) {
        fail(context, "window abandoned although its owning node is alive");
      }
      continue;
    }
    bool stored = false;
    for (const auto* part : parts) {
      if (part->node == core::kInvalidNode) {
        fail(context, "split window carries an unassigned part");
        continue;
      }
      if (!ring.node(part->node).alive) {
        fail(context, "sub-query assigned to dead node " +
                          std::to_string(part->node));
        continue;
      }
      stored |= ring.range_of(part->node).intersects(repl);
    }
    if (!stored) {
      fail(context,
           "pq=" + std::to_string(pq) +
               ": no assigned node stores the object's replication arc");
    }
  }
}

void InvariantChecker::check_reconfig(const std::string& context) {
  const core::ReplicationController& repl = cluster_.control().replication();
  uint32_t safe = repl.safe_p(), target = repl.target_p();
  uint32_t storage = cluster_.control().storage_p();
  if (repl.in_progress()) {
    if (target >= safe) {
      fail(context, "confirmations pending but target_p " +
                        std::to_string(target) + " >= safe_p " +
                        std::to_string(safe));
    }
  } else if (safe != target) {
    fail(context, "no confirmations pending but safe_p " +
                      std::to_string(safe) + " != target_p " +
                      std::to_string(target));
  }

  // Node-level view: liveness agrees with the authoritative ring, and
  // every live node that has received ranges stores at the old level, the
  // new level (its own fetch already done), or the drop-gated storage
  // level — never anything else.
  const core::Ring& ring = cluster_.membership().ring(0);
  net::FaultTransport* ft = cluster_.faults();
  for (const auto& n : ring.nodes()) {
    NodeRuntime& node = cluster_.node(n.id);
    if (node.alive() != n.alive) {
      fail(context, "node " + std::to_string(n.id) +
                        " runtime/ring liveness mismatch");
      continue;
    }
    if (!node.alive() || node.range().empty()) continue;
    // A node the control plane cannot currently reach may hold stale
    // state with no way to learn better; the heal path resyncs the view,
    // so the assertion resumes once the cut ends.
    if (ft && ft->link_cut(kMembershipAddr, node.address())) continue;
    uint32_t np = node.current_p();
    if (np != safe && np != target && np != storage) {
      fail(context, "node " + std::to_string(n.id) + " serves at p=" +
                        std::to_string(np) + ", none of safe_p " +
                        std::to_string(safe) + ", target_p " +
                        std::to_string(target) + ", storage_p " +
                        std::to_string(storage));
    }
  }
}

void InvariantChecker::check_accounting(const std::string& context) {
  net::Transport& t = cluster_.transport();
  uint64_t sent = t.messages_sent();
  if (sent < last_messages_sent_) {
    fail(context, "messages_sent went backwards");
  }
  last_messages_sent_ = sent;

  net::FaultTransport* ft = cluster_.faults();
  if (ft) {
    const auto& c = ft->counters();
    uint64_t expect_inner =
        ft->messages_sent() - c.messages_dropped + c.duplicates -
        ft->in_flight();
    uint64_t inner_sent = ft->inner()->messages_sent();
    if (inner_sent != expect_inner) {
      fail(context, "fault-layer conservation broken: inner sent " +
                        std::to_string(inner_sent) + ", expected " +
                        std::to_string(expect_inner));
    }
    if (ft->messages_dropped() > ft->messages_sent() + c.duplicates) {
      fail(context, "dropped exceeds sent plus duplicates");
    }
  } else {
    if (t.messages_dropped() > t.messages_sent()) {
      fail(context, "dropped exceeds sent");
    }
    if (t.bytes_dropped() > t.bytes_sent()) {
      fail(context, "dropped bytes exceed sent bytes");
    }
  }
}

// --------------------------------------------------------------- scenario

Scenario::Scenario(EmulatedCluster& cluster, uint64_t seed)
    : cluster_(cluster),
      checker_(cluster, subseed(seed, SeedStream::kScenario)),
      rng_(subseed(seed, SeedStream::kScenarioWorkload)) {}

Scenario& Scenario::add(double at, std::string what,
                        std::function<void()> apply) {
  steps_.push_back({at, std::move(what), std::move(apply)});
  return *this;
}

Scenario& Scenario::crash(double at, NodeId id) {
  return add(at, "crash node " + std::to_string(id),
             [this, id] { cluster_.kill_node(id); });
}

Scenario& Scenario::revive(double at, NodeId id) {
  return add(at, "revive node " + std::to_string(id),
             [this, id] { cluster_.revive_node(id); });
}

Scenario& Scenario::crash_frontend(double at, uint32_t index) {
  return add(at, "crash frontend " + std::to_string(index),
             [this, index] { cluster_.kill_frontend(index); });
}

Scenario& Scenario::revive_frontend(double at, uint32_t index) {
  return add(at, "revive frontend " + std::to_string(index),
             [this, index] { cluster_.revive_frontend(index); });
}

Scenario& Scenario::join(double at, double speed) {
  return add(at, "join node (speed " + std::to_string(speed) + ")",
             [this, speed] { cluster_.add_node(speed); });
}

Scenario& Scenario::leave(double at, NodeId id) {
  return add(at, "leave node " + std::to_string(id),
             [this, id] { cluster_.leave_node(id); });
}

Scenario& Scenario::remove_dead(double at) {
  return add(at, "remove dead nodes",
             [this] { cluster_.remove_dead_nodes(); });
}

Scenario& Scenario::balance(double at) {
  return add(at, "balance round", [this] { cluster_.balance_round(); });
}

Scenario& Scenario::reconfigure(double at, uint32_t p_new) {
  return add(at, "reconfigure p=" + std::to_string(p_new), [this, p_new] {
    // Overlapping changes would leave nodes fetching for a superseded p;
    // the control plane serialises reconfigurations, so do we.
    if (!cluster_.control().reconfig_busy()) {
      cluster_.change_p(p_new);
    }
  });
}

Scenario& Scenario::partition(double at, double duration,
                              std::vector<NodeId> island) {
  if (!cluster_.faults()) {
    throw std::logic_error(
        "Scenario::partition requires ClusterConfig::enable_faults");
  }
  std::string who;
  for (NodeId id : island) {
    if (!who.empty()) who += ",";
    who += std::to_string(id);
  }
  auto pid = std::make_shared<uint64_t>(0);
  add(at, "partition {" + who + "} from the rest", [this, island, pid] {
    std::vector<net::Address> a, b;
    for (NodeId id : island) a.push_back(node_address(id));
    b = {kMembershipAddr, kUpdateServerAddr};
    for (uint32_t i = 0; i < cluster_.frontend_count(); ++i) {
      b.push_back(frontend_address(i));
    }
    for (NodeId id = 0; id < cluster_.node_count(); ++id) {
      if (std::find(island.begin(), island.end(), id) == island.end()) {
        b.push_back(node_address(id));
      }
    }
    *pid = cluster_.faults()->partition(std::move(a), std::move(b));
  });
  add(at + duration, "heal partition {" + who + "}", [this, pid] {
    if (*pid != 0) cluster_.faults()->heal(*pid);
    // Resync the view: every subscriber the cut starved receives the
    // current epoch again and re-derives its state — including any §4.5
    // fetch duty whose ordering delta the cut black-holed, which is how
    // an in-progress reconfiguration always completes after a heal. The
    // full resync also refreshes the front-ends' liveness mirrors, so
    // nodes they declared dead during the cut serve again immediately.
    cluster_.control().resync(/*everyone=*/true);
  });
  return *this;
}

Scenario& Scenario::burst(double at, double rate_per_s, uint32_t count) {
  return add(
      at,
      "burst of " + std::to_string(count) + " queries at " +
          std::to_string(rate_per_s) + "/s",
      [this, rate_per_s, count] {
        double t = cluster_.now();
        for (uint32_t i = 0; i < count; ++i) {
          t += rng_.next_exponential(rate_per_s);
          cluster_.loop().schedule_at(t, [this] {
            ++result_.queries_submitted;
            cluster_.submit_query([this](const QueryOutcome& out) {
              if (out.complete) {
                ++result_.queries_completed;
              } else {
                ++result_.queries_partial;
              }
              result_.min_harvest =
                  std::min(result_.min_harvest, out.harvest);
            });
          });
        }
      });
}

Scenario& Scenario::ingest(double at, double rate_per_s, uint32_t count,
                           double delete_frac) {
  if (!cluster_.ingest()) {
    throw std::logic_error(
        "Scenario::ingest requires ClusterConfig::enable_ingest");
  }
  return add(
      at,
      "ingest " + std::to_string(count) + " ops at " +
          std::to_string(rate_per_s) + "/s",
      [this, rate_per_s, count, delete_frac] {
        double t = cluster_.now();
        for (uint32_t i = 0; i < count; ++i) {
          t += rng_.next_exponential(rate_per_s);
          cluster_.loop().schedule_at(t, [this, delete_frac] {
            ++result_.ingest_ops;
            issue_random_ingest_op(*cluster_.ingest(), rng_, delete_frac);
          });
        }
      });
}

ScenarioResult Scenario::run(double duration) {
  result_ = {};
  double t0 = cluster_.now();
  // Violations recorded by earlier run() calls (the checker accumulates)
  // stay out of this run's result.
  size_t violations_before = checker_.violations().size();
  size_t dumps_before = cluster_.tracer().dump_count();
  checker_.check("start");

  std::stable_sort(steps_.begin(), steps_.end(),
                   [](const Step& a, const Step& b) { return a.at < b.at; });
  for (Step& step : steps_) {
    cluster_.loop().schedule_at(t0 + step.at, [this, &step] {
      step.apply();
      result_.trace.push_back(time_tag(step.at) + " " + step.what);
      ++result_.events_applied;
    });
    // The audit runs a settle window later: the event's control-plane
    // messages (range pushes, fetch orders) need a network latency to
    // land before node-level state is meaningful to assert on.
    cluster_.loop().schedule_at(t0 + step.at + check_settle_s_,
                                [this, &step] { checker_.check(step.what); });
  }
  cluster_.loop().run_until(t0 + duration);

  // Drain window: queries submitted near the end of the run (or stalled
  // behind timeout/split rounds) get a bounded grace period to resolve —
  // and, with ingestion, the replicas' SyncSessions get time to converge
  // on the router's final LSNs — so the result accounts for everything.
  double drain_deadline = t0 + duration + drain_s_;
  auto drained = [this] {
    return result_.queries_completed + result_.queries_partial >=
               result_.queries_submitted &&
           cluster_.ingest_converged();
  };
  // do-while: advance at least once, so an event applied at the very end
  // (e.g. a revival whose range push is still in flight) is visible to
  // the convergence verdict before we judge it.
  do {
    cluster_.loop().run_until(
        std::min(cluster_.now() + 1.0, drain_deadline));
  } while (!drained() && cluster_.now() < drain_deadline);

  checker_.check("end");
  result_.ingest_converged = cluster_.ingest_converged();
  checker_.check_ingest_converged("end");
  checker_.check_view_converged("end");
  result_.messages_sent = cluster_.transport().messages_sent();
  result_.messages_dropped = cluster_.transport().messages_dropped();
  result_.violations.assign(
      checker_.violations().begin() + violations_before,
      checker_.violations().end());

  // Flight-recorder capture: dumps recorded during this run ride in the
  // result, and land as files when ROAR_FLIGHT_DUMP_DIR is set (the CI
  // chaos soak uploads that directory as an artifact on failure).
  auto dumps = cluster_.tracer().dumps();
  if (dumps.size() > dumps_before) {
    result_.flight_dumps.assign(dumps.begin() + dumps_before, dumps.end());
  }
  if (const char* dir = std::getenv("ROAR_FLIGHT_DUMP_DIR");
      dir != nullptr && *dir != '\0' && !result_.flight_dumps.empty()) {
    for (size_t i = 0; i < result_.flight_dumps.size(); ++i) {
      const auto& d = result_.flight_dumps[i];
      std::ostringstream name;
      name << dir << "/flight_dump_" << dumps_before + i << ".txt";
      std::ofstream out(name.str());
      if (out) {
        out << "reason: " << d.reason << "\n"
            << "trace: " << d.trace_id << "\n"
            << "at: " << d.at << "\n\n"
            << d.rendered;
      }
    }
  }
  return result_;
}

}  // namespace roar::cluster
