// The deployable ROAR cluster: the cluster assembly (cluster/assembly.h)
// over real loopback TCP, exchanging byte-for-byte the protocol the
// emulated cluster runs in virtual time — including the epoch-versioned
// ClusterView delta/ack/pull choreography.
//
// This harness is only the substrate: a TcpDriver with N reactor shards
// (shard 0 driven by the caller, the rest on their own threads), one
// TcpTransport listener per endpoint, and the one WorkerPool real scans
// run on. Nodes that scan a real corpus share that pool, sized so lanes
// plus reactor threads do not outnumber the usable cores (one lane at
// least); nodes without an engine own no thread and answer from a
// node_workers-lane analytic pipeline on their shard's wall clock.
// ClusterAssembly builds and runs the
// components exactly as it does in EmulatedCluster, marshaling node
// reads onto the owning shard. See ARCHITECTURE.md for the
// assembly/substrate split and the threading contract.
#pragma once

#include <memory>
#include <vector>

#include "cluster/assembly.h"
#include "core/worker_pool.h"
#include "net/tcp_transport.h"

namespace roar::cluster {

struct TcpClusterConfig : AssemblyConfig {
  TcpClusterConfig() : AssemblyConfig(/*dataset=*/100'000, /*p0=*/4) {}

  uint32_t nodes = 8;
  // Per-node relative speeds; padded with 1.0 up to `nodes`.
  std::vector<double> speeds;
  // Latency hint fed to the delay estimator (loopback RTT scale).
  double latency_hint_s = 100e-6;

  // --- execution engine --------------------------------------------------
  // Reactor shards in the TcpDriver. 1 = the original single-threaded
  // harness (shard 0, caller-driven). N > 1 spreads node endpoints across
  // N event loops (node i on shard i % N, each with its own epoll, clock
  // and mailbox); the control endpoint and the front-ends stay on the
  // caller-driven shard 0, so the harness API remains single-threaded.
  uint32_t reactor_shards = 1;
  // Matching lanes per node (its core count). Engine-less nodes answer
  // from an analytic pipeline max(1, node_workers) FIFO lanes wide, as
  // the paper's §5.7 thread sweep widens its matcher; they run no thread
  // of their own. Real-matching nodes batch sub-queries per loop wakeup
  // onto one process-wide pool of min(nodes × node_workers, max(1,
  // usable CPUs − reactor_shards)) lanes and post completions back to
  // the node's shard thread: their scans burn real CPU, and more busy
  // threads than cores only add wake-up and preemption delay. 0 = a
  // size-0 pool: real matching scans inline on the shard thread through
  // the same batched path.
  uint32_t node_workers = 0;
  // Give every node a real pps corpus + query (one shared immutable
  // MatchEngine) instead of the analytic service model. enable_ingest
  // implies it (ingestion mutates the real corpus).
  bool real_matching = false;
};

// Every endpoint gets its own loopback listener: the control plane, the
// front-ends and the ingest router share transports_[0] (one "control
// process"), node i owns transports_[i + 1] on reactor shard i % shards.
// Node state is touched only on the node's shard thread.
class TcpSubstrate : public Substrate {
 public:
  explicit TcpSubstrate(const TcpClusterConfig& config);

  net::TcpDriver& driver() { return driver_; }
  uint16_t node_port(NodeId id) const {
    return transports_.at(id + 1)->port();
  }
  uint32_t node_shard(NodeId id) const override {
    return static_cast<uint32_t>(id % driver_.shards());
  }

 private:
  net::Transport& control_transport() override { return *transports_[0]; }
  net::Transport& node_transport(NodeId id) override;
  void attach(NodeRuntime& node) override;
  void on_shard(size_t shard,
                const std::function<void()>& fn) const override;
  void deliver_first_view(const std::function<bool()>& ready) override;

 protected:
  // Stops every thread that can touch a component: the shard loops first
  // (joined), then the scan pool (drained and joined; in-flight tasks
  // point into nodes). Their posted completions are never run.
  void shutdown();
  uint64_t pool_sum(uint64_t (core::WorkerPool::*get)() const) const;

  net::TcpDriver driver_;
  std::vector<std::unique_ptr<net::TcpTransport>> transports_;
  // The process-wide scan pool, made by the first engine-backed node.
  std::unique_ptr<core::WorkerPool> scan_pool_;

 private:
  double latency_hint_s_;
  uint32_t nodes_;
  uint32_t node_workers_;
};

// The substrate base comes first, so it is built before every component
// and destroyed after them; ~TcpCluster stops its threads before any
// component dies.
class TcpCluster : public TcpSubstrate, public ClusterAssembly {
 public:
  explicit TcpCluster(TcpClusterConfig config);
  ~TcpCluster();

  // Submits one query (front-ends round-robin) and polls sockets +
  // wall-clock timers until it completes (or `timeout_s` passes — the
  // outcome then has id == 0).
  QueryOutcome run_query(double timeout_s = 30.0);
  // `count` queries back-to-back (closed loop).
  std::vector<QueryOutcome> run_queries(uint32_t count,
                                        double per_query_timeout_s = 30.0);

  // Polls for `duration_s` wall seconds (timers keep firing).
  void run_for(double duration_s);

  // Polls sockets + timers until ingest_converged() or timeout; returns
  // the verdict.
  bool run_until_ingest_converged(double timeout_s = 20.0);
  // Execution-engine diagnostics summed over nodes / of the scan pool.
  uint64_t batches_drained() const {
    return static_cast<uint64_t>(fold_nodes(&NodeRuntime::batches_drained));
  }
  uint64_t batched_subqueries() const {
    return static_cast<uint64_t>(
        fold_nodes(&NodeRuntime::batched_subqueries));
  }
  uint64_t pool_tasks_executed() const {
    return pool_sum(&core::WorkerPool::executed);
  }
  uint64_t pool_tasks_stolen() const {
    return pool_sum(&core::WorkerPool::stolen);
  }
  // Worker threads of the scan pool (0 without one).
  uint64_t pool_threads() const;
};

}  // namespace roar::cluster
