// The emulated ROAR deployment: the cluster assembly (cluster/assembly.h)
// over the virtual-time substrate — one EventLoop carrying an
// InProcNetwork, optionally decorated by a seeded FaultTransport.
//
// This is the Chapter 7 substrate: the same control-plane code paths a
// physical deployment runs (joins, view-epoch broadcasts, reconfiguration
// fetch duties and confirmations, failure detection by timeout, §4.4
// splits), with node matching rates taken from the PPS measurements.
// ClusterAssembly builds and runs the components exactly as it does over
// real sockets in TcpCluster; this harness adds only the substrate and the
// operations that need virtual time (timed joins, departures, long-term
// cleanup, Poisson workloads). See ARCHITECTURE.md for the
// assembly/substrate split and the substitution argument.
#pragma once

#include <memory>
#include <vector>

#include "cluster/assembly.h"
#include "net/fault_transport.h"
#include "net/inproc.h"

namespace roar::cluster {

struct ClusterConfig : AssemblyConfig {
  // The paper's 5M-metadata headline at p = 8.
  ClusterConfig() : AssemblyConfig(/*dataset=*/5'000'000, /*p0=*/8) {}

  std::vector<sim::ServerClass> classes = sim::hen_testbed();
  double latency_s = 100e-6;
  // When set, the whole cluster runs over a seeded FaultTransport
  // decorating the InProcNetwork; default_faults seeds its baseline
  // per-link model (partitions etc. are scripted later via faults()).
  bool enable_faults = false;
  net::FaultSpec default_faults{};
  // Closed-loop p control: the ControlPlane ticks an AdaptivePController
  // fed by node load reports and front-end latency digests. Enabling it
  // defaults stats_interval_s / digest_interval_s to 1 s if unset.
  bool adaptive_p = false;
  core::AdaptivePParams adaptive{};
  double adaptive_interval_s = 4.0;
};

// Every endpoint shares the one in-process transport on the caller's
// event loop, so the substrate has a single shard and never marshals.
class EmulatedSubstrate : public Substrate {
 public:
  explicit EmulatedSubstrate(const ClusterConfig& config);

  net::EventLoop& loop() { return loop_; }
  net::InProcNetwork& network() { return net_; }
  // The transport every component is wired to: the fault layer when
  // enabled, otherwise the bare in-process network.
  net::Transport& transport() {
    return faults_ ? static_cast<net::Transport&>(*faults_) : net_;
  }
  // The fault-injection layer, or nullptr when enable_faults is unset.
  net::FaultTransport* faults() { return faults_.get(); }
  double now() const { return loop_.now(); }

 private:
  net::Transport& control_transport() override { return transport(); }
  net::Transport& node_transport(NodeId) override { return transport(); }
  void deliver_first_view(const std::function<bool()>& ready) override;

 protected:
  net::EventLoop loop_;
  net::InProcNetwork net_;
  std::unique_ptr<net::FaultTransport> faults_;
  double latency_s_;
};

// The substrate base comes first: it is built before every component and
// destroyed after them (~IngestLog/~IngestRouter cancel timers on loop_).
class EmulatedCluster : public EmulatedSubstrate, public ClusterAssembly {
 public:
  explicit EmulatedCluster(ClusterConfig config);

  // --- membership operations -------------------------------------------
  // Joins a fresh node; it downloads its data for `warmup` simulated
  // seconds (derived from range size and fetch bandwidth) before serving.
  NodeId add_node(double speed);
  // Graceful departure: the node stops serving, neighbours absorb its
  // range, and the front-ends forget it with the next view epoch.
  void leave_node(NodeId id);
  // Long-term failure handling (§4.9): drop crashed nodes from the ring so
  // their ranges merge into live successors, and publish. Returns the
  // number of nodes removed.
  uint32_t remove_dead_nodes();

  // --- workload -----------------------------------------------------------
  // Open-loop Poisson queries, round-robined over the front-ends; runs
  // the loop until all complete or `give_up_s` of virtual time passes.
  // Returns completed count.
  uint32_t run_queries(double rate_per_s, uint32_t count,
                       double give_up_s = 600.0);
  // Object updates at Poisson rate for `duration_s` (§7.3.4); each update
  // goes to every node storing the object's arc. Legacy modeled-cost
  // stream — real mutation goes through ingest_stream / the router.
  void inject_updates(double rate_per_s, double duration_s);

  // --- live ingestion ------------------------------------------------------
  // Schedules `count` real index mutations at Poisson rate: a mix of
  // document adds (deterministic synthetic docs) and deletes of earlier
  // adds. Requires enable_ingest. Ops route through the IngestRouter like
  // any client's would.
  void ingest_stream(double rate_per_s, uint32_t count,
                     double delete_frac = 0.2);
  // Runs the loop until ingest_converged() or `timeout_s` virtual seconds
  // elapse; returns the converged verdict.
  bool run_until_ingest_converged(double timeout_s = 60.0);

  // --- metrics -------------------------------------------------------------
  std::vector<double> node_busy_fractions() const;
  // Energy over the elapsed virtual time with a linear power model.
  double energy_joules(double idle_w = 200.0, double peak_w = 285.0) const;
  // Instance-0 delays, for the single-front-end experiments.
  const SampleSet& delays() const { return frontends_.front()->delays(); }

 private:
  Rng rng_;
  double measure_start_ = 0.0;
};

}  // namespace roar::cluster
