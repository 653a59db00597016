// One ROAR cluster, independent of what carries its messages.
//
// ClusterAssembly builds and owns every substrate-independent component —
// the membership server, the ControlPlane, F front-ends, the shared
// MatchEngine and IngestRouter, N NodeRuntimes, the tracer and the single
// metrics table — and runs the lifecycle both harnesses share: publishing
// view epochs, p changes, node crash/revive, round-robin submission and
// ingest convergence. It reaches the substrate only through the Substrate
// hooks below. EmulatedCluster (virtual time, InProcNetwork) and
// TcpCluster (TcpDriver shards, real sockets, worker pools) each derive
// from their substrate first and from the assembly second, so the
// substrate is built before any component and destroyed after all of
// them. The components are built by assemble(), which the harness calls
// from its constructor body: only there is the whole object complete, so
// the hooks dispatch to the harness's overrides. See ARCHITECTURE.md
// ("Harnesses: one assembly, two substrates").
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/control.h"
#include "cluster/frontend.h"
#include "cluster/node.h"
#include "common/metrics.h"
#include "core/membership.h"
#include "core/slo.h"
#include "core/tracer.h"
#include "sim/farm.h"

namespace roar::cluster {

// The settings ClusterConfig and TcpClusterConfig share, with the same
// meaning on either substrate. dataset_size and p default per harness.
struct AssemblyConfig {
  AssemblyConfig(uint64_t dataset, uint32_t p0)
      : dataset_size(dataset), p(p0) {}

  uint64_t dataset_size;  // metadata items
  uint32_t p;
  // Front-end instances (§4.8/§4.9 scale-out). Each has its own address,
  // scheduler RNG stream and EWMA estimator state.
  uint32_t frontends = 1;
  FrontendParams frontend;  // p is overwritten from the field above
  NodeParams node_proto;    // id/speed overwritten per node
  uint64_t seed = 1;
  // Membership balance iterations at startup (ranges ∝ speed).
  uint32_t initial_balance_steps = 800;
  // Laggard-resync cadence of the control plane.
  double control_retransmit_s = 0.5;
  // Dissemination-tree fanout k (control-plane roots and interior relay
  // nodes) and the tree/sliced decision divisor: waves interesting at
  // least node_count/tree_divisor subscribers go through the relay tree,
  // smaller ones are sent directly to the interested slice.
  uint32_t relay_fanout = 8;
  uint32_t tree_divisor = 4;
  // Live ingestion: one shared MatchEngine (real corpus), an IngestLog +
  // versioned store on every node and an IngestRouter at
  // kUpdateServerAddr that every front-end forwards client mutations to.
  bool enable_ingest = false;
  MatchEngineConfig engine{};
  IngestConfig ingest{};
  // Overload control (core/slo.h): per-class contracts feeding frontend
  // admission/shedding, Spang-sized queue bounds on frontends and nodes,
  // and (with adaptive p) the controller's p99 target — all from this one
  // spec. Caps left 0 are derived from rated_capacity_qps().
  core::SloSpec slo;
};

// What the assembly needs from the substrate it runs on. Every hook is
// called from the harness's driving thread.
class Substrate {
 public:
  // The endpoint hosting the control plane, every front-end and the
  // ingest router.
  virtual net::Transport& control_transport() = 0;
  // Node `id`'s endpoint; called once per node, in id order.
  virtual net::Transport& node_transport(NodeId id) = 0;
  // Substrate-specific node setup, run before the node starts.
  virtual void attach(NodeRuntime& /*node*/) {}
  // Node `id` lives on event loop node_shard(id); the control endpoint
  // lives on shard 0, which the caller drives.
  virtual uint32_t node_shard(NodeId /*id*/) const { return 0; }
  // Runs `fn` on the thread that owns `shard` and waits for it.
  virtual void on_shard(size_t /*shard*/,
                        const std::function<void()>& fn) const {
    fn();
  }
  // Delivers the first view epoch; `ready` holds once every node has its
  // range and every front-end has applied a view.
  virtual void deliver_first_view(const std::function<bool()>& ready) = 0;

 protected:
  ~Substrate() = default;  // never owned through this interface
};

class ClusterAssembly {
 public:
  // Per-substrate wiring choices. `control` carries the adaptive-p
  // settings; its p/retransmit/relay fields are taken from the config.
  struct Wiring {
    ControlPlaneParams control{};
    // Give nodes the shared MatchEngine even without ingestion.
    bool real_matching = false;
    // Nodes with an engine still charge the modeled service time, which
    // keeps virtual-time traces independent of the host.
    bool modeled_timing = false;
  };

  ClusterAssembly(const ClusterAssembly&) = delete;
  ClusterAssembly& operator=(const ClusterAssembly&) = delete;

  ControlPlane& control() { return *control_; }
  const ControlPlane& control() const { return *control_; }
  Frontend& frontend() { return *frontends_.front(); }  // instance 0
  Frontend& frontend(uint32_t i) { return *frontends_.at(i); }
  const Frontend& frontend(uint32_t i) const { return *frontends_.at(i); }
  uint32_t frontend_count() const {
    return static_cast<uint32_t>(frontends_.size());
  }
  core::MembershipServer& membership() { return membership_; }
  // The ingest router, or nullptr when enable_ingest is unset.
  IngestRouter* ingest() { return ingest_router_.get(); }
  const IngestRouter* ingest() const { return ingest_router_.get(); }
  // The shared matching engine, or nullptr when nodes use the analytic
  // service model.
  const MatchEngine* engine() const { return engine_.get(); }

  size_t node_count() const { return nodes_.size(); }
  // Direct node access is race-free only while no other thread runs the
  // node's shard (always, with one shard); the lifecycle and metrics
  // below marshal their node reads through the substrate.
  NodeRuntime& node(NodeId id) { return *nodes_.at(id); }
  // Live nodes.
  std::vector<NodeId> node_ids() const;

  // --- observability ------------------------------------------------------
  // The unified metrics plane: every component's counters exposed as lazy
  // gauges (evaluated at snapshot, node reads marshaled onto the owning
  // shard), plus the latency/service histograms the front-ends and nodes
  // feed directly.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  // One trace ring per substrate shard: control, front-ends and the
  // ingest router write ring 0, node i writes its shard's ring.
  core::Tracer& tracer() { return tracer_; }
  const core::Tracer& tracer() const { return tracer_; }
  // Merged, time-sorted trace events; each ring is read on its owning
  // thread, so this is safe while the cluster runs.
  std::vector<core::TraceEvent> trace_events() const;

  // Publishes the current membership + reconfiguration state as a new
  // view epoch (no-op when nothing changed). The broadcast reaches
  // everyone; laggards converge through the control plane's retransmit
  // tick, and the revive path forces a resync for promptness.
  void publish_view();
  // Background range balancing round (§4.6); returns range fraction moved.
  double balance_round();

  // --- node lifecycle ------------------------------------------------------
  // Crash-stops a node: it unbinds, so frames addressed to it vanish; the
  // front-ends must discover the failure by timeout (no view is published
  // for a crash).
  void kill_node(NodeId id);
  // Restarts a crashed node. Still on its ring with its download done, it
  // kept its data (and ingest log) and resumes its old range in place
  // (§4.9); otherwise it reloads like a fresh join (§4.3). Either way it
  // pulls the current view, which re-derives any §4.5 duty it lost, and
  // its SyncSessions catch its index up with what it missed.
  void revive_node(NodeId id);

  // --- front-end lifecycle (§4.8 scale-out) ------------------------------
  // Crash-stops front-end `i`: its pending queries fail, its address
  // unbinds, and the control plane stops waiting on its acks.
  void kill_frontend(uint32_t i);
  // Restarts it; it pulls the current view and refuses queries until the
  // view applies.
  void revive_frontend(uint32_t i);

  // --- reconfiguration (§4.5) -------------------------------------------
  void change_p(uint32_t p_new);
  uint32_t safe_p() const { return control_->safe_p(); }
  uint32_t target_p() const { return control_->target_p(); }

  // --- workload -----------------------------------------------------------
  // Non-blocking submission on the next ready front-end (round-robin);
  // the callback fires from the substrate's loop.
  uint64_t submit_query(Frontend::QueryCallback cb);
  // Classed submission (the workload engine's entry point).
  uint64_t submit_query(const QueryRequest& req, Frontend::QueryCallback cb);

  // --- live ingestion ------------------------------------------------------
  // Current replica views (live nodes with ranges), for the convergence
  // and safety reports.
  std::vector<IngestReplicaView> ingest_replicas() const;
  // True when every replica of every shard has caught up with the router.
  bool ingest_converged() const;

  // --- accounting ----------------------------------------------------------
  // Analytic saturation throughput: aggregate matching rate over the
  // per-query scan work. The workload engine and bench_overload express
  // offered load as multiples of this; the SLO cap derivation uses it.
  double rated_capacity_qps() const { return rated_capacity_qps_; }
  // Traffic summed over every endpoint's transport.
  uint64_t messages_sent() const;
  uint64_t bytes_sent() const;
  uint64_t messages_dropped() const;
  // Aggregate overload-control counters across frontends / nodes.
  uint64_t admission_shed_total() const;
  uint64_t node_shed_total() const;

 protected:
  // `shards` is the substrate's event-loop count: one trace ring each.
  // Builds no component and calls no hook; the harness calls assemble().
  ClusterAssembly(Substrate& substrate, AssemblyConfig config,
                  size_t shards);
  // Builds and starts every component in dependency order — membership,
  // control plane, front-ends, engine and ingest router, gauges, one node
  // per class member — balances the ranges and delivers the first view.
  void assemble(const std::vector<sim::ServerClass>& classes,
                Wiring wiring);
  // Builds node `id` on its substrate endpoint and starts it; the caller
  // joins it to the membership.
  void make_node(NodeId id, double speed);
  // The node serves only after downloading its stored arc (§4.3): the
  // control plane marks it warming (published as down) until the modeled
  // download is done, then publishes it into service.
  void schedule_warmup_push(NodeId id);
  // Runs `fn` on the thread that owns node `id` and waits for it.
  void on_node(NodeId id, const std::function<void()>& fn) const {
    substrate_.on_shard(substrate_.node_shard(id), fn);
  }
  // Sum (or max) of `get` over every node, each read on its own shard.
  template <typename Get>
  double fold_nodes(Get get, bool max = false) const;
  net::Clock& clock() { return substrate_.control_transport().clock(); }

  Substrate& substrate_;
  AssemblyConfig config_;
  // Observability plane. Declared before the components that record into
  // it, so it is destroyed after them.
  MetricsRegistry metrics_;
  core::Tracer tracer_;
  core::MembershipServer membership_;
  std::unique_ptr<ControlPlane> control_;
  std::vector<std::unique_ptr<Frontend>> frontends_;
  std::shared_ptr<const MatchEngine> engine_;
  std::unique_ptr<IngestRouter> ingest_router_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;

 private:
  void register_gauges();

  bool modeled_timing_ = false;
  double rated_capacity_qps_ = 0.0;
  // Distinct transports the components were wired to (traffic totals).
  std::vector<net::Transport*> endpoints_;
  uint32_t next_frontend_ = 0;  // round-robin submit cursor
};

template <typename Get>
double ClusterAssembly::fold_nodes(Get get, bool max) const {
  double acc = 0.0;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    on_node(id, [&] {
      double v = static_cast<double>(std::invoke(get, *nodes_[id]));
      acc = max ? std::max(acc, v) : acc + v;
    });
  }
  return acc;
}

}  // namespace roar::cluster
