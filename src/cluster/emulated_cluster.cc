#include "cluster/emulated_cluster.h"

#include <algorithm>
#include <stdexcept>

namespace roar::cluster {

namespace {

ClusterAssembly::Wiring emulated_wiring(const ClusterConfig& c) {
  ClusterAssembly::Wiring w;
  w.control.adaptive = c.adaptive_p;
  w.control.adaptive_params = c.adaptive;
  w.control.adaptive_interval_s = c.adaptive_interval_s;
  return w;
}

}  // namespace

EmulatedSubstrate::EmulatedSubstrate(const ClusterConfig& config)
    : net_(loop_, config.latency_s,
           subseed(config.seed, SeedStream::kNetwork)),
      latency_s_(config.latency_s) {
  if (config.enable_faults) {
    faults_ = std::make_unique<net::FaultTransport>(
        net_, subseed(config.seed, SeedStream::kFaults));
    faults_->set_default_faults(config.default_faults);
  }
}

void EmulatedSubstrate::deliver_first_view(const std::function<bool()>&) {
  // Ten one-way latencies deliver the first epoch and its acks; virtual
  // time makes that a fixed horizon, not a polling condition.
  loop_.run_until(loop_.now() + 10 * latency_s_);
}

EmulatedCluster::EmulatedCluster(ClusterConfig config)
    : EmulatedSubstrate(config),
      ClusterAssembly(*this, config, /*shards=*/1),
      rng_(subseed(config.seed, SeedStream::kWorkload)) {
  assemble(config.classes, emulated_wiring(config));
  measure_start_ = loop_.now();
}

NodeId EmulatedCluster::add_node(double speed) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  make_node(id, speed);
  membership_.join(id, speed);
  schedule_warmup_push(id);
  return id;
}

void EmulatedCluster::leave_node(NodeId id) {
  NodeRuntime& node = *nodes_.at(id);
  if (!node.alive()) return;
  node.kill();
  membership_.leave(id);
  control_->unsubscribe(node_address(id));
  publish_view();
}

uint32_t EmulatedCluster::remove_dead_nodes() {
  std::vector<NodeId> dead;
  for (const auto& n : membership_.ring(0).nodes()) {
    if (!n.alive) dead.push_back(n.id);
  }
  for (NodeId id : dead) {
    // A removed confirmer can never report its fetch; stop waiting on it
    // so an in-progress p decrease cannot wedge forever (§4.9).
    control_->abandon_fetch(id);
    control_->set_warming(id, false);
    control_->unsubscribe(node_address(id));
    membership_.remove_failed(id);
  }
  if (!dead.empty()) publish_view();
  return static_cast<uint32_t>(dead.size());
}

uint32_t EmulatedCluster::run_queries(double rate_per_s, uint32_t count,
                                      double give_up_s) {
  uint32_t completed = 0;
  uint32_t finished = 0;  // complete or failed
  double t = loop_.now();
  for (uint32_t i = 0; i < count; ++i) {
    t += rng_.next_exponential(rate_per_s);
    loop_.schedule_at(t, [this, &completed, &finished] {
      submit_query([&completed, &finished](const QueryOutcome& out) {
        ++finished;
        if (out.complete) ++completed;
      });
    });
  }
  // Step in chunks so virtual time stops shortly after the last completion
  // (keeps elapsed-time metrics meaningful) instead of at the give-up
  // deadline.
  double deadline = t + give_up_s;
  while (finished < count && loop_.now() < deadline) {
    loop_.run_until(std::min(loop_.now() + 0.5, deadline));
  }
  return completed;
}

void EmulatedCluster::ingest_stream(double rate_per_s, uint32_t count,
                                    double delete_frac) {
  if (!ingest_router_) {
    throw std::logic_error(
        "EmulatedCluster::ingest_stream requires enable_ingest");
  }
  double t = loop_.now();
  for (uint32_t i = 0; i < count; ++i) {
    t += rng_.next_exponential(rate_per_s);
    loop_.schedule_at(t, [this, delete_frac] {
      issue_random_ingest_op(*ingest_router_, rng_, delete_frac);
    });
  }
}

bool EmulatedCluster::run_until_ingest_converged(double timeout_s) {
  double deadline = loop_.now() + timeout_s;
  // Advance before the first verdict: a just-revived or just-joined node
  // is not a replica until its range push lands, so judging the quiescent
  // state without running the loop would miss it entirely.
  do {
    loop_.run_until(std::min(loop_.now() + 0.25, deadline));
  } while (!ingest_converged() && loop_.now() < deadline);
  return ingest_converged();
}

std::vector<double> EmulatedCluster::node_busy_fractions() const {
  std::vector<double> out;
  double elapsed = loop_.now() - measure_start_;
  for (const auto& n : nodes_) {
    out.push_back(elapsed > 0 ? n->busy_seconds() / elapsed : 0.0);
  }
  return out;
}

double EmulatedCluster::energy_joules(double idle_w, double peak_w) const {
  double elapsed = loop_.now() - measure_start_;
  double joules = 0.0;
  for (const auto& n : nodes_) {
    if (!n->alive()) continue;
    joules += idle_w * elapsed + (peak_w - idle_w) * n->busy_seconds();
  }
  return joules;
}

}  // namespace roar::cluster
