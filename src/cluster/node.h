// A ROAR storage/matching node in the emulated cluster.
//
// Serves sub-queries over its slice of the metadata (FIFO, one logical
// matching pipeline per node — Definition 8's constant-service-time model,
// with rates taken from the PPS measurements), applies object updates
// (which consume matching capacity, §7.3.4), and derives its range, its
// storage level and its §4.5 duties from the epoch-versioned ClusterView
// the control plane broadcasts: on every applied view the node recomputes
// its range from the ring, stores at the view's storage_p, and — if it
// finds itself in the pending-confirmer set of an in-progress p decrease —
// starts (or re-reports) the background download of its extended arc.
// Receiving an epoch again is therefore always safe and always sufficient:
// retransmission replaces every bespoke recovery path the old one-shot
// range-push/fetch-order messages needed.
//
// Timing models. A node with an executor (set_executor) and a MatchEngine
// scans for real on wall-clock time: sub-queries arriving in one
// event-loop round are batched — drained up to kBatchMax per wakeup — and
// matched on the pool, with completions posted back to the loop thread,
// which alone touches the transport and counters. A size-0 pool runs the
// same path inline on the loop thread. Every other node replies from the
// analytic Definition-8 pipeline on its clock: W FIFO lanes (set_lanes;
// one by default) of constant service time per metadata item, each
// sub-query starting on the earliest-free lane. An engine there supplies
// the reply's real counts, never its timing — which is what keeps the
// EmulatedCluster deterministic in virtual time.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/ingest.h"
#include "cluster/match_engine.h"
#include "cluster/protocol.h"
#include "cluster/relay.h"
#include "common/metrics.h"
#include "core/cluster_view.h"
#include "core/tracer.h"
#include "core/reconfig.h"
#include "core/worker_pool.h"
#include "net/transport.h"

namespace roar::cluster {

struct NodeParams {
  NodeId id = 0;
  double speed = 1.0;            // relative hardware speed (Table 7.1)
  double base_rate = 250'000.0;  // metadata/s at speed 1.0 (Fig 5.6b)
  double subquery_overhead_s = 0.004;  // fixed per-sub-query cost (§7.3.2)
  double update_cost_s = 0.003;  // per stored object update (§7.3.4)
  double fetch_bandwidth = 50e6;  // bytes/s from the backend filestore
  double bytes_per_object = 700.0;
  // Periodic kNodeStats load report to the control plane; 0 disables.
  // The adaptive-p controller's node-side signal.
  double stats_interval_s = 0.0;
  // --- overload control (core/slo.h; 0 = unbounded legacy behaviour) ----
  // Bound, in seconds, on the analytic pipeline's backlog (the earliest
  // lane's free time − now, the wait a new arrival would see): arrivals
  // beyond a class's share of it (core::class_bound_frac) are refused with
  // a shed reply. Scanning nodes take no such bound; front-end admission
  // bounds what reaches them.
  double max_backlog_s = 0.0;
};

// Max sub-queries drained per wakeup. Arrivals beyond it stay queued and
// the drain reschedules itself, so the loop thread never stalls on an
// unbounded batch.
constexpr size_t kBatchMax = 16;

// Off-loop execution wiring. `pool` stays owned by the harness and must
// outlive the node's in-flight work (destroy pools before nodes).
// `post` marshals a closure back to the event-loop thread (e.g.
// TcpDriver::post); posted closures are the ONLY way executed work
// touches the node again.
struct NodeExecutor {
  core::WorkerPool* pool = nullptr;
  std::function<void(std::function<void()>)> post;
};

class NodeRuntime {
 public:
  NodeRuntime(net::Transport& net, NodeParams params,
              uint64_t dataset_size);

  NodeId id() const { return params_.id; }
  net::Address address() const { return node_address(params_.id); }

  // Lifecycle. kill() unbinds from the network: in-flight and future
  // messages to this node vanish, exactly like a crashed host.
  void start();
  void kill();
  bool alive() const { return alive_; }

  void set_dataset_size(uint64_t d) { dataset_size_ = d; }

  // Attaches the executor real scans run on (wall-clock timing); a size-0
  // pool scans inline on the loop thread. Without an engine the node
  // stays on the analytic pipeline.
  void set_executor(NodeExecutor exec) { exec_ = std::move(exec); }
  // Width of the analytic pipeline: `w` FIFO lanes (at least one), the
  // node's matching threads in the paper's §5.7 sweep. Call before
  // start().
  void set_lanes(size_t w) { lane_free_.assign(std::max<size_t>(1, w), 0.0); }
  // Attaches real matching (shared, immutable). Without an engine the
  // node uses the analytic service model's counts.
  void set_match_engine(std::shared_ptr<const MatchEngine> engine);
  bool has_match_engine() const { return engine_ != nullptr; }
  // Live ingestion: gives the node its own IngestLog (a per-replica
  // versioned store over the engine's shared base corpus + the
  // anti-entropy SyncSession). Requires set_match_engine with the same
  // engine; call before start().
  void enable_ingest(IngestConfig cfg,
                     std::shared_ptr<const MatchEngine> engine);
  IngestLog* ingest() { return ingest_.get(); }
  const IngestLog* ingest() const { return ingest_.get(); }

  // --- observability -----------------------------------------------------
  // Attaches the cluster tracer; `shard` is the trace ring this node
  // writes — its owning reactor shard, so ring writes stay on the loop
  // thread (worker lanes never record; completions do, after the post).
  void set_tracer(core::Tracer* tracer, size_t shard) {
    tracer_ = tracer;
    trace_shard_ = shard;
    if (ingest_) ingest_->set_tracer(tracer, shard);
  }
  // Optional registry histogram fed every sub-query's service time.
  void set_service_histogram(Histogram* h) { service_hist_ = h; }

  // Matching rate in metadata/s.
  double rate() const { return params_.base_rate * params_.speed; }

  // Diagnostics for the CPU-load and speed figures.
  double busy_seconds() const { return busy_seconds_; }
  uint64_t subqueries_served() const { return subqueries_served_; }
  uint64_t updates_applied() const { return updates_applied_; }
  const Arc& range() const { return range_; }
  // Cross-thread-safe "has a nonempty range" flag for harness readiness
  // checks (range() itself may only be read on the node's shard thread).
  bool has_range() const {
    return has_range_.load(std::memory_order_acquire);
  }
  uint32_t current_p() const { return p_; }
  // The node's replicated control state.
  uint64_t view_epoch() const { return sub_.epoch(); }
  // Dissemination-tree diagnostics: view deltas forwarded to relay
  // children, aggregated acks sent upward (covering > 1 subscriber), and
  // queued forwards superseded by a newer wave (the AIMD halving signal).
  uint64_t deltas_relayed() const { return deltas_relayed_; }
  uint64_t acks_aggregated() const { return acks_aggregated_; }
  uint64_t relay_supersessions() const { return relay_supersessions_; }
  // Interest registrations sent to the control plane (kViewInterest).
  uint64_t interests_sent() const { return interests_sent_; }
  // Batching diagnostics: drain wakeups and sub-queries they carried.
  uint64_t batches_drained() const { return batches_drained_; }
  uint64_t batched_subqueries() const { return batched_subqueries_; }
  // Overload-control stats. With max_backlog_s > 0 the drop-tail law
  // guarantees backlog_hwm_s ≤ max_backlog_s (recorded at admission,
  // audited by the scenario safety report).
  uint64_t subs_shed() const { return subs_shed_; }
  double backlog_hwm_s() const { return backlog_hwm_s_; }
  double max_backlog_s() const { return params_.max_backlog_s; }

  // The object ids this node stores: its range extended 1/p backwards
  // (every object whose replication arc reaches the range).
  Arc stored_arc() const;

 private:
  // One sub-query's work, fully resolved on the loop thread at drain time
  // so worker lanes never read mutable node state (range_, p_, ...).
  struct ResolvedSub {
    net::Address from;
    SubQueryReplyMsg reply;   // query/part ids prefilled
    MatchEngine::Window window;
    double modeled_service_s = 0.0;  // the analytic pipeline's charge
    // Versioned view pinned at resolve time (loop thread), so every
    // sub-query of one batch matches ONE consistent snapshot no matter
    // how many ingest ops land while lanes scan. Null without ingest.
    std::shared_ptr<const pps::StoreSnapshot> snap;
  };

  void handle(net::Address from, net::ByteView payload);
  void on_subquery(net::Address from, const SubQueryMsg& m);
  // Refuses one sub-query at the backlog bound: immediate shed reply
  // (proves liveness, books the harvest loss at the front-end now instead
  // of after a timeout).
  void shed_reply(net::Address from, const SubQueryMsg& m);
  // One relay child: its own branch targets, pacing window and (at most
  // one) queued wave a full window deferred.
  struct RelayChild {
    net::Address addr = 0;
    std::vector<net::Address> targets;
    relay::Window win;
    std::optional<core::ViewDelta> queued;
  };

  void on_view_delta(const ViewDeltaMsg& m);
  // Relay duty (tree dissemination). A delta carrying relay_targets makes
  // this node an interior relay for that wave: it splits the list into
  // per-child branches and forwards, pacing each child with an AIMD
  // window (at most one wave queued per child; a newer wave supersedes
  // it). A delta with NO targets clears the duty — the node acks
  // individually again, so a repaired branch can never freeze the
  // aggregate.
  void take_relay_duty(const ViewDeltaMsg& m);
  void forward_to_child(RelayChild& c, const core::ViewDelta& d);
  void on_child_ack(const ViewAckMsg& m);
  // Sends the (possibly aggregated) watermark upward: min over own epoch
  // and every child's acked watermark, monotone in what was last
  // reported.
  void maybe_send_ack();
  // Registers this node's interest arc (stored region + slack) with the
  // control plane when the needed region escapes what was registered.
  void refresh_interest();
  // Re-derives range, storage p and §4.5 fetch duties from the current
  // view. Idempotent: re-applied epochs re-trigger it harmlessly.
  void reconcile_view();
  void begin_fetch(const core::Ring& ring, uint32_t p_old, uint32_t p_new);
  void send_fetch_complete(uint32_t new_p);
  void stats_tick(uint64_t life);

  // Wall-clock timing: real scans on an executor. Otherwise the analytic
  // pipeline answers.
  bool executes() const { return exec_.pool != nullptr && engine_; }
  // Loop thread: takes up to kBatchMax pending sub-queries and submits
  // their scans to the pool (each chunk shares one evaluation).
  void drain_batch();
  ResolvedSub resolve(net::Address from, const SubQueryMsg& m) const;
  // Loop thread: accounting + reply for one finished sub-query.
  void complete(const ResolvedSub& sub, uint64_t scanned, uint64_t matches,
                double service_s);
  // Analytic reply: occupies the modeled pipeline for the analytic
  // service time and schedules `sub.reply` at its finish.
  void reply_modeled(const ResolvedSub& sub);

  // Enqueues `seconds` of work on the earliest-free lane of the local
  // pipeline; returns its finish time.
  double enqueue_work(double seconds);

  // Records a node-side span event at an explicit timestamp (reply_modeled
  // stamps virtual-future exec/done times).
  void trace_event(uint64_t trace, core::TraceStage stage, uint32_t part,
                   double at, double dur = 0.0);

  net::Transport& net_;
  NodeParams params_;
  uint64_t dataset_size_;
  bool alive_ = false;
  core::ViewSubscription sub_;
  Arc range_;
  std::atomic<bool> has_range_{false};
  uint32_t p_ = 1;
  // §4.5 download bookkeeping. `running` marks an in-flight fetch (reset
  // by a crash: the download dies with the process); `done` marks data
  // already on disk (survives crashes — a revived node re-reports instead
  // of re-fetching). `gen` invalidates completion timers of abandoned
  // attempts — a re-started fetch for the SAME target p must not be
  // completed early by its predecessor's timer.
  uint32_t fetch_running_for_p_ = 0;
  uint32_t fetch_done_for_p_ = 0;
  uint64_t fetch_gen_ = 0;
  // Invalidates timer chains from a previous life on kill()/start().
  uint64_t life_ = 0;
  // --- dissemination-tree + interest state -------------------------------
  std::vector<RelayChild> children_;  // empty = leaf / direct subscriber
  uint8_t relay_fanout_ = 1;  // fanout of the wave that set the duty
  net::Address ack_to_ = kMembershipAddr;  // upward ack destination
  uint64_t ack_reported_ = 0;  // newest watermark sent upward (monotone)
  uint64_t deltas_relayed_ = 0;
  uint64_t acks_aggregated_ = 0;
  uint64_t relay_supersessions_ = 0;
  // Interest registration: the arc last sent to the control plane (2×
  // slack around the needed region, hysteresis against churn). Cleared on
  // restart/gap so a possibly-lost registration is re-sent.
  bool interest_sent_ = false;
  Arc interest_registered_;
  uint64_t interests_sent_ = 0;
  double stats_busy_mark_ = 0.0;
  // When each lane of the analytic pipeline next falls idle (one lane
  // until set_lanes).
  std::vector<double> lane_free_{0.0};
  double busy_seconds_ = 0.0;
  uint64_t subqueries_served_ = 0;
  uint64_t updates_applied_ = 0;

  NodeExecutor exec_;
  std::shared_ptr<const MatchEngine> engine_;
  std::unique_ptr<IngestLog> ingest_;
  std::vector<std::pair<net::Address, SubQueryMsg>> pending_subs_;
  bool drain_scheduled_ = false;
  uint64_t batches_drained_ = 0;
  uint64_t batched_subqueries_ = 0;
  uint64_t subs_shed_ = 0;
  double backlog_hwm_s_ = 0.0;
  core::Tracer* tracer_ = nullptr;
  size_t trace_shard_ = 0;
  Histogram* service_hist_ = nullptr;
};

}  // namespace roar::cluster
