#include "cluster/assembly.h"

#include "common/logging.h"
#include "common/rng.h"

namespace roar::cluster {

namespace {

// Analytic saturation throughput: per query, every node contributes
// dataset/agg_rate busy seconds of scanning (balanced shares) plus its
// slice of the p sub-query overheads.
double rated_capacity(const AssemblyConfig& c,
                      const std::vector<sim::ServerClass>& classes) {
  double agg_rate = 0.0;
  uint32_t n_nodes = 0;
  for (const auto& cls : classes) {
    agg_rate += cls.count * cls.speed * c.node_proto.base_rate;
    n_nodes += cls.count;
  }
  if (agg_rate <= 0 || n_nodes == 0) return 0.0;
  double scan_s = static_cast<double>(c.dataset_size) / agg_rate;
  double overhead_s =
      c.node_proto.subquery_overhead_s * c.p / std::max(1u, n_nodes);
  return 1.0 / (scan_s + overhead_s);
}

}  // namespace

ClusterAssembly::ClusterAssembly(Substrate& substrate, AssemblyConfig config,
                                 size_t shards)
    : substrate_(substrate),
      config_(std::move(config)),
      tracer_(shards),
      // Seed streams (common/rng.h subseed) are shared by both harnesses,
      // so the same `seed` yields the same membership positions and
      // front-end decisions — the parity test depends on it.
      membership_(core::MembershipConfig{},
                  subseed(config_.seed, SeedStream::kMembership)) {}

void ClusterAssembly::assemble(const std::vector<sim::ServerClass>& classes,
                               Wiring wiring) {
  modeled_timing_ = wiring.modeled_timing;
  rated_capacity_qps_ = rated_capacity(config_, classes);
  config_.frontend.p = config_.p;
  config_.frontend.subquery_overhead_s = config_.node_proto.subquery_overhead_s;
  if (config_.frontends == 0) config_.frontends = 1;
  ControlPlaneParams cp = wiring.control;
  if (cp.adaptive) {
    // The p controller is fed by node load reports and front-end latency
    // digests; give both a cadence when unset.
    if (config_.node_proto.stats_interval_s <= 0) {
      config_.node_proto.stats_interval_s = 1.0;
    }
    if (config_.frontend.digest_interval_s <= 0) {
      config_.frontend.digest_interval_s = 1.0;
    }
  }
  if (config_.slo.enabled) {
    // One contract spec feeds everything: the admission controller every
    // frontend runs, the Spang bounds every node enforces, and (with
    // adaptive p) the latency target the p controller holds.
    uint32_t n_nodes = 0;
    for (const auto& cls : classes) n_nodes += cls.count;
    double per_node_subq =
        rated_capacity_qps_ * config_.p / std::max(1u, n_nodes);
    core::ResolvedSlo r = core::resolve_slo(
        config_.slo, rated_capacity_qps_, per_node_subq, config_.frontends);
    config_.frontend.slo_enabled = true;
    config_.frontend.admission = r.admission;
    if (config_.node_proto.max_backlog_s <= 0) {
      config_.node_proto.max_backlog_s = r.node_max_backlog_s;
    }
    if (config_.node_proto.exec_queue_cap == 0) {
      config_.node_proto.exec_queue_cap = r.node_exec_queue_cap;
    }
    if (cp.adaptive) cp.adaptive_params.target_p99_s = r.target_p99_s;
  }

  net::Transport& control = substrate_.control_transport();
  endpoints_.push_back(&control);
  cp.initial_p = config_.p;
  cp.retransmit_interval_s = config_.control_retransmit_s;
  cp.relay_fanout = config_.relay_fanout;
  cp.tree_divisor = config_.tree_divisor;
  control_ = std::make_unique<ControlPlane>(control, membership_, cp);
  control_->on_reconfigured = [this](uint32_t new_p) {
    ROAR_LOG(kInfo) << "cluster: reconfiguration to p=" << new_p
                    << " complete at t=" << clock().now();
  };
  control_->start();

  for (uint32_t i = 0; i < config_.frontends; ++i) {
    frontends_.push_back(std::make_unique<Frontend>(
        control, i, config_.frontend, config_.dataset_size,
        frontend_seed(config_.seed, i)));
    control_->subscribe_frontend(frontends_.back()->address());
    frontends_.back()->set_tracer(&tracer_, 0);
    frontends_.back()->set_latency_histogram(
        &metrics_.histogram("frontend.latency_s"));
    frontends_.back()->start();
  }

  // Real matching: one immutable engine shared by every node (each node
  // scans only the slice a sub-query's window selects, so sharing the
  // corpus changes nothing observable and saves N-1 encryptions).
  if (config_.enable_ingest || wiring.real_matching) {
    engine_ = std::make_shared<const MatchEngine>(config_.engine);
  }
  if (config_.enable_ingest) {
    ingest_router_ = std::make_unique<IngestRouter>(
        control, config_.ingest, subseed(config_.seed, SeedStream::kIngest),
        engine_, [this] { return membership_.ring(0); },
        [this] { return control_->storage_p(); });
    ingest_router_->set_tracer(&tracer_, 0);
    ingest_router_->start();
    for (auto& fe : frontends_) fe->set_ingest(ingest_router_.get());
  }

  register_gauges();
  tracer_.set_dump_renderer([this](uint64_t id, const std::string& reason) {
    return core::render_flight_dump(trace_events(), id, reason,
                                    metrics_.to_text());
  });

  NodeId id = 0;
  for (const auto& cls : classes) {
    for (uint32_t i = 0; i < cls.count; ++i) {
      make_node(id, cls.speed);
      membership_.join(id, cls.speed);
      ++id;
    }
  }
  // Converge ranges to ∝ speed before measurements.
  for (uint32_t i = 0; i < config_.initial_balance_steps; ++i) {
    if (membership_.balance_step() == 0.0) break;
  }
  publish_view();
  // Serving with empty ranges would silently corrupt outcomes, so every
  // component is ranged and ready before the constructor returns.
  substrate_.deliver_first_view([this] {
    for (const auto& n : nodes_) {
      if (!n->has_range()) return false;
    }
    for (const auto& fe : frontends_) {
      if (!fe->ready()) return false;
    }
    return true;
  });
}

// One table absorbs every component's counters as lazy gauges: nothing is
// sampled until snapshot(), so registration costs nothing on the hot path,
// and the callbacks iterate the live component lists, so nodes added later
// are picked up for free. Node reads run on the node's own shard.
void ClusterAssembly::register_gauges() {
  auto of = [this](const char* name, const auto* obj, auto get) {
    metrics_.gauge_fn(name, [obj, get] {
      return static_cast<double>(std::invoke(get, *obj));
    });
  };
  auto frontends = [this](const char* name, auto get, bool max = false) {
    metrics_.gauge_fn(name, [this, get, max] {
      double acc = 0.0;
      for (const auto& fe : frontends_) {
        double v = static_cast<double>(std::invoke(get, *fe));
        acc = max ? std::max(acc, v) : acc + v;
      }
      return acc;
    });
  };
  auto nodes = [this](const char* name, auto get, bool max = false) {
    metrics_.gauge_fn(name,
                      [this, get, max] { return fold_nodes(get, max); });
  };
  frontends("frontend.completed", &Frontend::queries_completed);
  frontends("frontend.failures_detected", &Frontend::failures_detected);
  frontends("frontend.shed", &Frontend::shed_count);
  frontends("frontend.parts_shed", &Frontend::parts_shed);
  frontends("frontend.queue_hwm", &Frontend::queue_hwm, /*max=*/true);
  nodes("node.subqueries", &NodeRuntime::subqueries_served);
  nodes("node.updates_applied", &NodeRuntime::updates_applied);
  nodes("node.shed", &NodeRuntime::subs_shed);
  nodes("node.exec_queue_hwm", &NodeRuntime::exec_queue_hwm, /*max=*/true);
  nodes("node.backlog_hwm_s", &NodeRuntime::backlog_hwm_s, /*max=*/true);
  of("net.messages_sent", this, &ClusterAssembly::messages_sent);
  of("net.messages_dropped", this, &ClusterAssembly::messages_dropped);
  of("net.bytes_sent", this, &ClusterAssembly::bytes_sent);
  const ControlPlane* cp = control_.get();
  of("control.epoch", cp, &ControlPlane::epoch);
  of("control.epoch_lag", cp, &ControlPlane::max_epoch_lag);
  of("control.p_changes_committed", cp, &ControlPlane::p_changes_committed);
  of("control.deltas_sent", cp, &ControlPlane::deltas_sent);
  of("control.interest_filtered_sends", cp, &ControlPlane::interest_skips);
  of("control.acks_aggregated", cp, &ControlPlane::acks_aggregated);
  of("control.compaction_ratio", cp, &ControlPlane::compaction_ratio);
  of("control.delta_log_retain", cp, &ControlPlane::delta_log_retain);
  of("control.tree_rebuilds", cp, &ControlPlane::tree_rebuilds);
  nodes("control.deltas_relayed", &NodeRuntime::deltas_relayed);
  nodes("control.node_acks_aggregated", &NodeRuntime::acks_aggregated);
  nodes("control.interests_registered", &NodeRuntime::interests_sent);
  of("trace.events", &tracer_, &core::Tracer::events_recorded);
  of("trace.anomalies", &tracer_, &core::Tracer::anomalies_seen);
  if (const IngestRouter* r = ingest_router_.get()) {
    of("ingest.ops_accepted", r, &IngestRouter::ops_accepted);
    of("ingest.updates_sent", r, &IngestRouter::updates_sent);
    of("ingest.retransmits", r, &IngestRouter::retransmits);
    of("ingest.loss_events", r, &IngestRouter::loss_events);
    of("ingest.flow_abandoned", r, &IngestRouter::flow_abandoned);
    of("ingest.syncs_served", r, &IngestRouter::syncs_served);
    of("ingest.sync_chunks_sent", r, &IngestRouter::sync_chunks_sent);
    of("ingest.full_segments_sent", r, &IngestRouter::full_segments_sent);
    nodes("ingest.ops_applied", [](const NodeRuntime& n) {
      return n.ingest() ? n.ingest()->ops_applied() : uint64_t{0};
    });
  }
}

void ClusterAssembly::make_node(NodeId id, double speed) {
  NodeParams np = config_.node_proto;
  np.id = id;
  np.speed = speed;
  net::Transport& transport = substrate_.node_transport(id);
  if (std::find(endpoints_.begin(), endpoints_.end(), &transport) ==
      endpoints_.end()) {
    endpoints_.push_back(&transport);
  }
  auto node =
      std::make_unique<NodeRuntime>(transport, np, config_.dataset_size);
  node->set_tracer(&tracer_, substrate_.node_shard(id));
  node->set_service_histogram(&metrics_.histogram("node.service_s"));
  if (engine_) {
    node->set_match_engine(engine_);
    if (modeled_timing_) node->set_modeled_timing(true);
  }
  if (config_.enable_ingest) node->enable_ingest(config_.ingest, engine_);
  substrate_.attach(*node);
  control_->subscribe_node(id);
  node->start();
  nodes_.push_back(std::move(node));
}

std::vector<NodeId> ClusterAssembly::node_ids() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    on_node(id, [&] {
      if (nodes_[id]->alive()) out.push_back(id);
    });
  }
  return out;
}

std::vector<core::TraceEvent> ClusterAssembly::trace_events() const {
  return tracer_.collect(
      [this](size_t shard, const std::function<void()>& read) {
        substrate_.on_shard(shard, read);
      });
}

void ClusterAssembly::publish_view() {
  // No immediate resync: right after an epoch bump nobody can have acked
  // yet, and a resync here would duplicate every delta as a snapshot.
  control_->publish();
}

double ClusterAssembly::balance_round() {
  double moved = membership_.balance_step();
  if (moved > 0) publish_view();
  return moved;
}

void ClusterAssembly::schedule_warmup_push(NodeId id) {
  const core::Ring& ring = membership_.ring(0);
  // Size the download by the SMALLEST p (largest stored arcs) the node
  // may have to serve: the gated storage level it stores at on arrival,
  // or the target of an in-progress decrease whose bigger arcs it will
  // own the moment the change commits.
  uint32_t p_load = std::min(control_->storage_p(), control_->target_p());
  Arc stored = core::stored_object_arc(ring, id, p_load);
  double bytes = stored.fraction() *
                 static_cast<double>(config_.dataset_size) *
                 config_.node_proto.bytes_per_object;
  double warmup = bytes / config_.node_proto.fetch_bandwidth;
  control_->set_warming(id, true);
  publish_view();
  clock().schedule_after(warmup, [this, id] {
    control_->set_warming(id, false);
    publish_view();
  });
  ROAR_LOG(kInfo) << "cluster: node " << id << " joining, warmup "
                  << warmup << "s";
}

void ClusterAssembly::kill_node(NodeId id) {
  NodeRuntime& node = *nodes_.at(id);
  on_node(id, [&] { node.kill(); });
  // Membership will learn and clean up; the front-ends must *discover*
  // the failure through timeouts (the realistic path) — a crash publishes
  // no view. Only the authoritative record is updated here.
  membership_.fail(id);
}

void ClusterAssembly::revive_node(NodeId id) {
  NodeRuntime& node = *nodes_.at(id);
  bool alive = false;
  on_node(id, [&] { alive = node.alive(); });
  if (alive) return;
  // Still on its ring with its download finished, the node kept its data
  // and serves once the view republishes. Removed by long-term cleanup
  // (data merged into neighbours) or crashed before its warmup completed,
  // it must (re)download first. Either way start() pulls the current
  // view, which subsumes any fetch-order re-issue.
  uint32_t member_ring = membership_.members().at(id).ring;
  bool in_place = membership_.ring(member_ring).contains(id) &&
                  !control_->is_warming(id);
  // Long-term cleanup unsubscribed the node; a revival is a rejoin for
  // the view protocol either way, with its ack state reset.
  control_->subscribe_node(id);
  on_node(id, [&] { node.start(); });
  membership_.revive(id);
  if (in_place) {
    publish_view();
    // The crash never bumped the epoch (front-ends discovered it by
    // timeout), so a revival may be a no-op diff: force a full resync so
    // every mirror resurrects the node's liveness now.
    control_->resync(/*everyone=*/true);
  } else {
    schedule_warmup_push(id);
  }
  ROAR_LOG(kInfo) << "cluster: node " << id << " revived at t="
                  << clock().now()
                  << (in_place ? " (in place)" : " (rejoin, reloading)");
}

void ClusterAssembly::kill_frontend(uint32_t i) {
  Frontend& fe = *frontends_.at(i);
  if (!fe.alive()) return;
  fe.stop();
  control_->set_frontend_down(fe.address(), true);
  ROAR_LOG(kInfo) << "cluster: frontend " << i << " crashed at t="
                  << clock().now();
}

void ClusterAssembly::revive_frontend(uint32_t i) {
  Frontend& fe = *frontends_.at(i);
  if (fe.alive()) return;
  control_->set_frontend_down(fe.address(), false);
  fe.start();  // pulls the current view; serves once it applies
  ROAR_LOG(kInfo) << "cluster: frontend " << i << " revived at t="
                  << clock().now();
}

void ClusterAssembly::change_p(uint32_t p_new) {
  control_->order_p_change(p_new);
}

uint64_t ClusterAssembly::submit_query(Frontend::QueryCallback cb) {
  return pick_ready_frontend(frontends_, next_frontend_)
      .submit(std::move(cb));
}

uint64_t ClusterAssembly::submit_query(const QueryRequest& req,
                                       Frontend::QueryCallback cb) {
  return pick_ready_frontend(frontends_, next_frontend_)
      .submit(req, std::move(cb));
}

std::vector<IngestReplicaView> ClusterAssembly::ingest_replicas() const {
  // A replica is a live, ranged, ingest-enabled node. Each is read on its
  // own shard, so versioned-store state is never read concurrently with
  // its owner.
  std::vector<IngestReplicaView> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    on_node(id, [&] {
      const NodeRuntime& n = *nodes_[id];
      if (n.alive() && n.ingest() && !n.range().empty()) {
        out.push_back({id, n.ingest(), n.stored_arc()});
      }
    });
  }
  return out;
}

bool ClusterAssembly::ingest_converged() const {
  if (!ingest_router_) return true;
  auto reps = ingest_replicas();
  return ingest_convergence_report(*ingest_router_, reps,
                                   /*probe_matches=*/false)
      .empty();
}

uint64_t ClusterAssembly::messages_sent() const {
  uint64_t total = 0;
  for (const auto* t : endpoints_) total += t->messages_sent();
  return total;
}

uint64_t ClusterAssembly::bytes_sent() const {
  uint64_t total = 0;
  for (const auto* t : endpoints_) total += t->bytes_sent();
  return total;
}

uint64_t ClusterAssembly::messages_dropped() const {
  uint64_t total = 0;
  for (const auto* t : endpoints_) total += t->messages_dropped();
  return total;
}

uint64_t ClusterAssembly::admission_shed_total() const {
  uint64_t n = 0;
  for (const auto& fe : frontends_) n += fe->shed_count();
  return n;
}

uint64_t ClusterAssembly::node_shed_total() const {
  return static_cast<uint64_t>(fold_nodes(&NodeRuntime::subs_shed));
}

}  // namespace roar::cluster
