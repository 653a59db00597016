#include "cluster/tcp_cluster.h"

#include <sched.h>

#include <algorithm>
#include <stdexcept>

namespace roar::cluster {

namespace {

// CPUs this process may run on: its affinity mask, which taskset and
// container CPU sets narrow, unlike std::thread::hardware_concurrency.
size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// One single-node class per node, so the assembly's capacity formula sums
// exactly the per-node speeds.
std::vector<sim::ServerClass> node_classes(const TcpClusterConfig& c) {
  std::vector<sim::ServerClass> out(c.nodes, {"", 1, 1.0});
  for (size_t i = 0; i < out.size() && i < c.speeds.size(); ++i) {
    out[i].speed = c.speeds[i];
  }
  return out;
}

ClusterAssembly::Wiring tcp_wiring(const TcpClusterConfig& c) {
  ClusterAssembly::Wiring w;
  w.real_matching = c.real_matching;
  return w;
}

}  // namespace

TcpSubstrate::TcpSubstrate(const TcpClusterConfig& config)
    : driver_(config.reactor_shards == 0 ? 1 : config.reactor_shards),
      latency_hint_s_(config.latency_hint_s),
      nodes_(config.nodes),
      node_workers_(config.node_workers) {
  // Control endpoint: control plane + front-ends share one listener, as
  // they share a process in the paper's deployment.
  transports_.push_back(std::make_unique<net::TcpTransport>(driver_));
  transports_[0]->set_latency_hint(latency_hint_s_);
}

// Everything the assembly wires runs before driver_.start(), so
// registering listeners with not-yet-running shard loops is
// single-threaded.
net::Transport& TcpSubstrate::node_transport(NodeId id) {
  transports_.push_back(
      std::make_unique<net::TcpTransport>(driver_, node_shard(id)));
  transports_.back()->set_latency_hint(latency_hint_s_);
  return *transports_.back();
}

void TcpSubstrate::attach(NodeRuntime& node) {
  if (!node.has_match_engine()) {
    // The node's cores are its analytic lanes; no thread stands for them.
    node.set_lanes(node_workers_);
    return;
  }
  // Real scans compete for the host's cores: every such node shares one
  // pool with at most one lane per core the reactor threads leave free.
  if (!scan_pool_) {
    size_t cpus = usable_cpus(), shards = driver_.shards();
    size_t lanes = std::min<size_t>(size_t{nodes_} * node_workers_,
                                    cpus > shards ? cpus - shards : 1);
    scan_pool_ = std::make_unique<core::WorkerPool>(lanes);
  }
  NodeExecutor exec;
  exec.pool = scan_pool_.get();
  // Completions must land on the shard thread that owns this node's
  // transport and state, not on shard 0.
  uint32_t shard = node_shard(node.id());
  exec.post = [this, shard](std::function<void()> fn) {
    driver_.post_to(shard, std::move(fn));
  };
  node.set_executor(std::move(exec));
}

void TcpSubstrate::on_shard(size_t shard,
                            const std::function<void()>& fn) const {
  // run_on mutates the target shard's mailbox; logically const here.
  const_cast<net::TcpDriver&>(driver_).run_on(shard, fn);
}

void TcpSubstrate::deliver_first_view(const std::function<bool()>& ready) {
  // Every endpoint is registered; spin up the shard threads (no-op with
  // one shard) before the first drain. Nodes on other shards report
  // readiness through their atomic has_range() flag.
  driver_.start();
  if (!driver_.run_until(ready)) {
    // No destructor runs for a constructor that throws: stop the threads
    // here, before the components unwind under them.
    shutdown();
    throw std::runtime_error("TcpCluster: initial view never delivered");
  }
}

void TcpSubstrate::shutdown() {
  driver_.stop();
  scan_pool_.reset();
}

uint64_t TcpSubstrate::pool_sum(
    uint64_t (core::WorkerPool::*get)() const) const {
  return scan_pool_ ? (*scan_pool_.*get)() : 0;
}

uint64_t TcpCluster::pool_threads() const {
  return scan_pool_ ? scan_pool_->size() : 0;
}

TcpCluster::TcpCluster(TcpClusterConfig config)
    : TcpSubstrate(config),
      ClusterAssembly(*this, config, driver_.shards()) {
  assemble(node_classes(config), tcp_wiring(config));
  // Substrate counters: relaxed atomics, read directly.
  driver_.register_metrics(metrics_, "driver");
  const std::pair<const char*, uint64_t (TcpCluster::*)() const> pool[] = {
      {"pool.tasks_executed", &TcpCluster::pool_tasks_executed},
      {"pool.tasks_stolen", &TcpCluster::pool_tasks_stolen},
      {"pool.threads", &TcpCluster::pool_threads},
  };
  for (const auto& [name, get] : pool) {
    metrics_.gauge_fn(name, [this, get = get] {
      return static_cast<double>((this->*get)());
    });
  }
}

TcpCluster::~TcpCluster() { shutdown(); }

QueryOutcome TcpCluster::run_query(double timeout_s) {
  // Shared state, not stack references: on timeout the query stays
  // pending inside the Frontend and its callback may still fire during a
  // later poll, after this frame is gone.
  auto out = std::make_shared<QueryOutcome>();
  auto done = std::make_shared<bool>(false);
  submit_query([out, done](const QueryOutcome& o) {
    *out = o;
    *done = true;
  });
  driver_.run_until([&] { return *done; }, timeout_s);
  return *out;  // id == 0 if the query never completed
}

std::vector<QueryOutcome> TcpCluster::run_queries(uint32_t count,
                                                  double per_query_timeout_s) {
  std::vector<QueryOutcome> outs;
  outs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    outs.push_back(run_query(per_query_timeout_s));
  }
  return outs;
}

void TcpCluster::run_for(double duration_s) {
  double until = driver_.clock().now() + duration_s;
  while (driver_.clock().now() < until) driver_.poll(5);
}

bool TcpCluster::run_until_ingest_converged(double timeout_s) {
  double until = driver_.clock().now() + timeout_s;
  // Poll before the first verdict so pending range pushes land (a
  // revived node is invisible to the replica set until they do).
  do {
    driver_.poll(5);
  } while (!ingest_converged() && driver_.clock().now() < until);
  return ingest_converged();
}

}  // namespace roar::cluster
