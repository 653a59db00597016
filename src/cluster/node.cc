#include "cluster/node.h"

#include <algorithm>

#include "common/logging.h"
#include "core/slo.h"

namespace roar::cluster {

NodeRuntime::NodeRuntime(net::Transport& net, NodeParams params,
                         uint64_t dataset_size)
    : net_(net), params_(params), dataset_size_(dataset_size) {}

void NodeRuntime::start() {
  alive_ = true;
  ++life_;
  std::fill(lane_free_.begin(), lane_free_.end(), net_.clock().now());
  net_.bind(address(), [this](net::Address from, net::Payload payload) {
    handle(from, payload);
  });
  if (sub_.epoch() > 0) {
    // Restart after a crash: the view is stale by an unknown number of
    // epochs, and any in-flight §4.5 duty died with the process. Pull the
    // current view; applying it re-derives both.
    ViewPullMsg pull;
    pull.subscriber = address();
    pull.have_epoch = sub_.epoch();
    net_.send(address(), kMembershipAddr, pull.encode());
  }
  if (params_.stats_interval_s > 0) {
    stats_busy_mark_ = busy_seconds_;
    uint64_t life = life_;
    net_.clock().schedule_after(params_.stats_interval_s,
                                [this, life] { stats_tick(life); });
  }
  if (ingest_) ingest_->on_start();  // resume the anti-entropy sessions
}

void NodeRuntime::kill() {
  alive_ = false;
  ++life_;  // kills the stats timer chain of this life
  net_.unbind(address());
  // Batched-but-unexecuted work vanishes with the crash; in-flight pool
  // tasks finish on their lanes but their completions see alive_ == false
  // and drop the reply. An in-flight §4.5 download dies too — but data
  // already fetched (fetch_done_for_p_) survives on disk.
  pending_subs_.clear();
  fetch_running_for_p_ = 0;
  ++fetch_gen_;
  // Relay duty and queued forwards die with the process; a crashed node's
  // subtree is repaired by the control plane's laggard path. The interest
  // registration may be re-assigned stale on the control side — re-send
  // it on the first reconcile of the next life.
  children_.clear();
  ack_to_ = kMembershipAddr;
  interest_sent_ = false;
  // The ingest log and its store survive (they are the node's disk); only
  // the sync timer stops until a revival restarts it.
  if (ingest_) ingest_->on_kill();
}

void NodeRuntime::stats_tick(uint64_t life) {
  if (life != life_ || !alive_) return;
  NodeStatsMsg msg;
  msg.node = params_.id;
  // Busy seconds accrue on every lane, so capacity is W lane-seconds.
  msg.busy_fraction =
      std::min(1.0, (busy_seconds_ - stats_busy_mark_) /
                        (params_.stats_interval_s * lane_free_.size()));
  msg.observed_rate = rate();
  stats_busy_mark_ = busy_seconds_;
  net_.send(address(), kMembershipAddr, msg.encode());
  net_.clock().schedule_after(params_.stats_interval_s,
                              [this, life] { stats_tick(life); });
}

void NodeRuntime::set_match_engine(
    std::shared_ptr<const MatchEngine> engine) {
  engine_ = std::move(engine);
}

void NodeRuntime::enable_ingest(IngestConfig cfg,
                                std::shared_ptr<const MatchEngine> engine) {
  ingest_ = std::make_unique<IngestLog>(net_, params_.id, cfg,
                                        std::move(engine));
  IngestLog::Hooks hooks;
  hooks.stored_arc = [this] { return stored_arc(); };
  // §7.3.4: each applied update consumes matching capacity on the node's
  // modeled pipeline.
  hooks.charge = [this] {
    enqueue_work(params_.update_cost_s);
    ++updates_applied_;
  };
  hooks.alive = [this] { return alive_; };
  ingest_->set_hooks(std::move(hooks));
  if (tracer_) ingest_->set_tracer(tracer_, trace_shard_);
}

void NodeRuntime::trace_event(uint64_t trace, core::TraceStage stage,
                              uint32_t part, double at, double dur) {
  if (!tracer_) return;
  tracer_->record(trace_shard_, trace, stage, params_.id, part, at, dur);
}

Arc NodeRuntime::stored_arc() const {
  if (range_.empty()) return Arc();
  uint64_t repl = circle_fraction(p_);
  RingId begin = range_.begin().advanced_raw(uint64_t{1} - repl);
  return Arc(begin, repl - 1 + range_.length());
}

double NodeRuntime::enqueue_work(double seconds) {
  double& lane = *std::min_element(lane_free_.begin(), lane_free_.end());
  lane = std::max(net_.clock().now(), lane) + seconds;
  busy_seconds_ += seconds;
  return lane;
}

void NodeRuntime::handle(net::Address from, net::ByteView payload) {
  auto type = peek_type(payload);
  if (!type) return;  // malformed: drop, as a defensive server must
  switch (*type) {
    case MsgType::kSubQuery:
      if (auto m = SubQueryMsg::decode(payload)) on_subquery(from, *m);
      break;
    case MsgType::kViewDelta:
      if (auto m = ViewDeltaMsg::decode(payload)) on_view_delta(*m);
      break;
    case MsgType::kViewAck:
      if (auto m = ViewAckMsg::decode(payload)) on_child_ack(*m);
      break;
    case MsgType::kUpdate:
      if (!ingest_) break;
      if (auto m = UpdateMsg::decode(payload)) ingest_->on_update(*m);
      break;
    case MsgType::kSyncData:
      if (!ingest_) break;
      if (auto m = SyncDataMsg::decode(payload)) ingest_->on_sync_data(*m);
      break;
    default:
      break;
  }
}

NodeRuntime::ResolvedSub NodeRuntime::resolve(net::Address from,
                                              const SubQueryMsg& m) const {
  // Objects this node must match: the intersection of the sub-query's
  // responsibility window with what the node actually stores. For a normal
  // sub-query the window lies entirely in the stored arc; for a §4.4
  // failure-split half it is roughly half the window — each neighbour
  // matches only the objects it holds, which is what keeps split work (and
  // the front-end's share-based predictions) consistent.
  ResolvedSub sub;
  sub.from = from;
  sub.reply.query_id = m.query_id;
  sub.reply.part_id = m.part_id;
  sub.reply.trace = m.trace;

  uint64_t window = m.window_begin.distance_to(m.window_end);
  double window_frac;
  if (window == 0 && m.pq <= 1) {
    window_frac = 1.0;  // whole space
    sub.window.whole = true;
  } else {
    sub.window.arc = Arc(m.window_begin.advanced_raw(1), window);
    Arc stored = stored_arc();
    window_frac =
        static_cast<double>(sub.window.arc.intersection_length(stored)) /
        18446744073709551616.0;
  }
  double count = window_frac * static_cast<double>(dataset_size_);
  sub.reply.scanned = static_cast<uint64_t>(count);
  // Match count model: queries in the experiments are selective; a small
  // deterministic fraction keeps reply sizes realistic without carrying a
  // real corpus at 43-node scale (the PPS example runs the real matcher).
  sub.reply.matches = static_cast<uint64_t>(count / 10'000.0);
  sub.modeled_service_s = count / rate() + params_.subquery_overhead_s;
  // Ingesting nodes match against their own versioned view; pinning the
  // snapshot here (loop thread) is the executor-safe swap point.
  if (engine_ && ingest_) sub.snap = ingest_->snapshot();
  return sub;
}

void NodeRuntime::complete(const ResolvedSub& sub, uint64_t scanned,
                           uint64_t matches, double service_s) {
  busy_seconds_ += service_s;
  ++subqueries_served_;
  SubQueryReplyMsg reply = sub.reply;
  reply.scanned = scanned;
  reply.matches = matches;
  reply.service_s = service_s;
  TraceIdScope log_scope(reply.trace);
  trace_event(reply.trace, core::TraceStage::kNodeDone, reply.part_id,
              net_.clock().now(), service_s);
  if (service_hist_) service_hist_->record(service_s);
  net_.send(address(), sub.from, reply.encode());
}

void NodeRuntime::shed_reply(net::Address from, const SubQueryMsg& m) {
  ++subs_shed_;
  trace_event(m.trace, core::TraceStage::kNodeShed, m.part_id,
              net_.clock().now());
  SubQueryReplyMsg reply;
  reply.query_id = m.query_id;
  reply.part_id = m.part_id;
  reply.trace = m.trace;
  reply.shed = 1;
  net_.send(address(), from, reply.encode());
}

void NodeRuntime::on_subquery(net::Address from, const SubQueryMsg& m) {
  TraceIdScope log_scope(m.trace);
  trace_event(m.trace, core::TraceStage::kNodeRecv, m.part_id,
              net_.clock().now());
  if (executes()) {
    // Wall-clock path: queue, and drain once per loop wakeup.
    // schedule_after(0) fires in the same poll round, after the whole read
    // batch, so every sub-query that arrived together is drained together.
    pending_subs_.emplace_back(from, m);
    if (!drain_scheduled_) {
      drain_scheduled_ = true;
      net_.clock().schedule_after(0.0, [this] { drain_batch(); });
    }
    return;
  }

  if (params_.max_backlog_s > 0) {
    // The analytic pipeline's reservation is the queue. Refusing here is
    // what keeps an open-loop overload from growing the lanes' backlog
    // without bound — the death-by-timeout spiral the unbounded node fell
    // into. The backlog is the wait a new arrival would see: the earliest
    // lane's.
    double backlog = std::max(
        0.0, *std::min_element(lane_free_.begin(), lane_free_.end()) -
                 net_.clock().now());
    if (backlog > params_.max_backlog_s * core::class_bound_frac(m.klass)) {
      shed_reply(from, m);
      return;
    }
    backlog_hwm_s_ = std::max(backlog_hwm_s_, backlog);
  }

  // Analytic pipeline: service time accrues on the earliest-free modeled
  // lane and the reply is scheduled at its finish time. An engine
  // supplies real counts; the timing stays analytic, so virtual-time
  // traces never depend on the host's scan speed.
  ResolvedSub sub = resolve(from, m);
  if (engine_) {
    MatchEngine::Result r = sub.snap ? engine_->execute(sub.window, *sub.snap)
                                     : engine_->execute(sub.window);
    sub.reply.scanned = r.scanned;
    sub.reply.matches = r.matches;
  }
  reply_modeled(sub);
}

void NodeRuntime::reply_modeled(const ResolvedSub& sub) {
  double service = sub.modeled_service_s;
  double finish = enqueue_work(service);
  ++subqueries_served_;
  // Span endpoints at the MODELED times: the sub-query "executes" from
  // finish-service to finish on the virtual pipeline.
  trace_event(sub.reply.trace, core::TraceStage::kNodeExec,
              sub.reply.part_id, finish - service);
  trace_event(sub.reply.trace, core::TraceStage::kNodeDone,
              sub.reply.part_id, finish, service);
  if (service_hist_) service_hist_->record(service);

  SubQueryReplyMsg reply = sub.reply;
  reply.service_s = service;
  net::Address dest = sub.from;
  net_.clock().schedule_at(finish, [this, dest, reply] {
    net_.send(address(), dest, reply.encode());
  });
}

void NodeRuntime::drain_batch() {
  drain_scheduled_ = false;
  if (!alive_ || pending_subs_.empty()) return;

  size_t n = std::min(pending_subs_.size(), kBatchMax);
  std::vector<ResolvedSub> batch;
  batch.reserve(n);
  double drain_at = net_.clock().now();
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(resolve(pending_subs_[i].first, pending_subs_[i].second));
    // Queue exit: the sub-query leaves the executor queue for a lane now.
    trace_event(batch.back().reply.trace, core::TraceStage::kNodeExec,
                batch.back().reply.part_id, drain_at);
  }
  pending_subs_.erase(pending_subs_.begin(),
                      pending_subs_.begin() + static_cast<ptrdiff_t>(n));
  if (!pending_subs_.empty()) {
    drain_scheduled_ = true;
    net_.clock().schedule_after(0.0, [this] { drain_batch(); });
  }
  ++batches_drained_;
  batched_subqueries_ += n;

  // Split the batch over at most pool-size chunks (one inline chunk on a
  // size-0 pool); each chunk shares one evaluation (the amortized
  // store/ordering work).
  size_t lanes =
      std::min(std::max<size_t>(1, exec_.pool->size()), batch.size());
  std::vector<std::vector<ResolvedSub>> chunks(lanes);
  for (size_t i = 0; i < batch.size(); ++i) {
    chunks[i % lanes].push_back(std::move(batch[i]));
  }
  for (auto& chunk : chunks) {
    std::shared_ptr<const MatchEngine> engine = engine_;
    double overhead = params_.subquery_overhead_s;
    auto post = exec_.post;
    exec_.pool->submit([this, engine, overhead, post,
                        chunk = std::move(chunk)]() mutable {
      std::vector<MatchEngine::Window> windows;
      std::vector<std::shared_ptr<const pps::StoreSnapshot>> snaps;
      windows.reserve(chunk.size());
      snaps.reserve(chunk.size());
      for (const auto& s : chunk) {
        windows.push_back(s.window);
        snaps.push_back(s.snap);  // null = boot corpus
      }
      auto results = engine->execute_batch(windows, snaps);
      post([this, chunk = std::move(chunk), results = std::move(results),
            overhead] {
        if (!alive_) return;  // crashed while the scan ran
        for (size_t i = 0; i < chunk.size(); ++i) {
          complete(chunk[i], results[i].scanned, results[i].matches,
                   results[i].cpu_s + overhead);
        }
      });
    });
  }
}

void NodeRuntime::on_view_delta(const ViewDeltaMsg& m) {
  // Relay duty is per-message: targets set it (and this node forwards the
  // wave before touching its own state — children are not gated on our
  // apply), no targets clear it.
  if (!m.relay_targets.empty()) {
    take_relay_duty(m);
  } else {
    children_.clear();
  }
  ack_to_ = m.ack_to;
  switch (sub_.apply(m.delta)) {
    case core::ViewSubscription::Apply::kApplied:
      reconcile_view();
      break;
    case core::ViewSubscription::Apply::kStale:
      break;
    case core::ViewSubscription::Apply::kGap: {
      // Our basis is missing; pull the compacted suffix. The registration
      // may have been lost along with whatever we missed — re-send it
      // once the pulled view applies.
      interest_sent_ = false;
      ViewPullMsg pull;
      pull.subscriber = address();
      pull.have_epoch = sub_.epoch();
      net_.send(address(), kMembershipAddr, pull.encode());
      break;  // watermark unchanged; children may still advance it
    }
  }
  maybe_send_ack();
}

void NodeRuntime::take_relay_duty(const ViewDeltaMsg& m) {
  relay_fanout_ = m.relay_fanout == 0 ? 1 : m.relay_fanout;
  auto branches = relay::split(m.relay_targets, relay_fanout_);
  // Keep pacing state for children that persist across waves (the tree is
  // deterministic, so they usually all do).
  std::vector<RelayChild> next;
  next.reserve(branches.size());
  for (auto& b : branches) {
    RelayChild c;
    c.addr = b.head;
    c.targets = std::move(b.rest);
    for (RelayChild& old : children_) {
      if (old.addr == c.addr) {
        c.win = old.win;
        c.queued = std::move(old.queued);
        break;
      }
    }
    next.push_back(std::move(c));
  }
  children_ = std::move(next);
  for (RelayChild& c : children_) forward_to_child(c, m.delta);
}

void NodeRuntime::forward_to_child(RelayChild& c, const core::ViewDelta& d) {
  if (!c.win.can_send()) {
    // Bounded buffer of one: a newer wave supersedes a queued older one —
    // the signal this child is not draining, halve its window.
    if (c.queued) {
      ++relay_supersessions_;
      c.win.on_supersede();
    }
    c.queued = d;
    return;
  }
  ViewDeltaMsg fwd;
  fwd.delta = d;
  fwd.ack_to = address();  // children ack here for aggregation
  fwd.relay_fanout = c.targets.empty() ? 0 : relay_fanout_;
  fwd.relay_targets = c.targets;
  net_.send(address(), c.addr, fwd.encode());
  c.win.on_sent(d.epoch);
  ++deltas_relayed_;
}

void NodeRuntime::on_child_ack(const ViewAckMsg& m) {
  for (RelayChild& c : children_) {
    if (c.addr != m.subscriber) continue;
    c.win.on_ack(m.epoch, m.agg_count);
    if (c.queued && c.win.can_send()) {
      core::ViewDelta d = std::move(*c.queued);
      c.queued.reset();
      forward_to_child(c, d);
    }
    break;
  }
  maybe_send_ack();
}

void NodeRuntime::maybe_send_ack() {
  // Aggregated watermark: the oldest epoch anyone in this subtree has
  // applied. Children that never acked hold it at 0 (nothing to report
  // yet).
  uint64_t wm = sub_.epoch();
  uint32_t agg = 1;
  for (const RelayChild& c : children_) {
    wm = std::min(wm, c.win.acked);
    agg += c.win.agg;
  }
  if (wm == 0 || wm < ack_reported_) return;
  ack_reported_ = wm;
  if (agg > 1) ++acks_aggregated_;
  ViewAckMsg ack;
  ack.subscriber = address();
  ack.epoch = wm;
  ack.agg_count = agg;
  net_.send(address(), ack_to_, ack.encode());
}

void NodeRuntime::refresh_interest() {
  if (range_.empty()) return;
  const core::ClusterView& v = sub_.view();
  // The region this node's control logic depends on: its range plus the
  // replication arc reaching back 1/p — membership changes there move its
  // range or its stored arc. Use the smallest p in play so an in-flight
  // decrease is already covered.
  uint32_t p = std::min({p_, v.target_p, v.safe_p});
  bool want_full = p <= 2;  // arcs cover most of the ring anyway
  uint64_t m = p > 0 ? circle_fraction(p) : 0;
  Arc needed;
  Arc reg;
  if (!want_full) {
    needed = Arc(range_.begin().advanced_raw(uint64_t{1} - m),
                 m - 1 + range_.length());
    if (needed.length() < range_.length()) want_full = true;  // wrapped
  }
  if (!want_full) {
    // Register twice the needed slack: hysteresis, so ordinary churn
    // (balance moves, neighbour joins) doesn't re-register every epoch.
    uint64_t slack = 2 * m;
    uint64_t len = slack - 1 + range_.length();
    if (len < range_.length()) {
      want_full = true;
    } else {
      reg = Arc(range_.begin().advanced_raw(uint64_t{1} - slack), len);
    }
  }
  if (interest_sent_) {
    bool covered =
        want_full ? interest_registered_.empty()
                  : !interest_registered_.empty() &&
                        interest_registered_.contains(needed.begin()) &&
                        interest_registered_.intersection_length(needed) ==
                            needed.length();
    if (covered) return;
  } else if (want_full) {
    return;  // full interest is the default; nothing to say
  }
  interest_registered_ = want_full ? Arc() : reg;
  interest_sent_ = true;
  ++interests_sent_;
  ViewInterestMsg msg;
  msg.subscriber = address();
  msg.epoch = sub_.epoch();
  if (!want_full) msg.arcs.push_back(interest_registered_);
  net_.send(address(), kMembershipAddr, msg.encode());
}

void NodeRuntime::reconcile_view() {
  const core::ClusterView& v = sub_.view();
  core::Ring ring = v.to_ring();
  if (!ring.contains(params_.id)) {
    range_ = Arc();
    has_range_.store(false, std::memory_order_release);
    p_ = v.storage_p;
    return;
  }
  range_ = ring.range_of(params_.id);
  has_range_.store(!range_.empty(), std::memory_order_release);
  // Store at the published level. During an in-progress decrease a node
  // that already finished its own fetch holds the larger arcs and keeps
  // claiming them (p_ = target), regardless of the view's lagging safe
  // level.
  p_ = v.storage_p;
  if (v.in_progress() && fetch_done_for_p_ == v.target_p) {
    p_ = v.target_p;
  }
  // Storing above a previously fetched level drops that level's surplus
  // arcs: the downloaded data is gone, and a future decrease back to the
  // same p must re-download rather than instantly re-confirm off the
  // stale credit.
  if (fetch_done_for_p_ != 0 && p_ > fetch_done_for_p_) {
    fetch_done_for_p_ = 0;
  }
  if (v.in_progress() && v.pending_contains(params_.id)) {
    if (fetch_done_for_p_ == v.target_p) {
      // Data already on disk (e.g. the confirmation was lost, or we
      // crashed after the download finished): just re-report.
      send_fetch_complete(v.target_p);
    } else if (fetch_running_for_p_ != v.target_p) {
      begin_fetch(ring, v.safe_p, v.target_p);
    }
  } else if (!v.in_progress()) {
    // Any straggling download is superseded; its timer must not complete
    // a later attempt.
    if (fetch_running_for_p_ != 0) ++fetch_gen_;
    fetch_running_for_p_ = 0;
  }
  refresh_interest();
}

void NodeRuntime::begin_fetch(const core::Ring& ring, uint32_t p_old,
                              uint32_t p_new) {
  // Download the new objects from the backend filestore at fetch
  // bandwidth; confirm when done. Downloads do not consume matching
  // capacity (the paper's background replication).
  Arc fetch =
      core::ReplicationController::fetch_arc(ring, params_.id, p_old, p_new);
  double frac =
      static_cast<double>(fetch.length()) / 18446744073709551616.0;
  double bytes = frac * static_cast<double>(dataset_size_) *
                 params_.bytes_per_object;
  double secs = bytes / params_.fetch_bandwidth;
  fetch_running_for_p_ = p_new;
  uint64_t gen = ++fetch_gen_;
  net_.clock().schedule_after(secs, [this, p_new, gen] {
    // The generation guard rejects orphaned timers from attempts that a
    // crash or supersession abandoned — even when a NEW attempt for the
    // same p is in flight (its own, later timer will complete it).
    if (!alive_ || gen != fetch_gen_) return;
    fetch_running_for_p_ = 0;
    fetch_done_for_p_ = p_new;
    p_ = p_new;
    send_fetch_complete(p_new);
  });
}

void NodeRuntime::send_fetch_complete(uint32_t new_p) {
  FetchCompleteMsg done;
  done.node = params_.id;
  done.new_p = new_p;
  net_.send(address(), kMembershipAddr, done.encode());
}

}  // namespace roar::cluster
