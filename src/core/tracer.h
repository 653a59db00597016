// End-to-end query tracing and the crash-time flight recorder.
//
// Every query is stamped with a deterministic trace id at the front-end
// (query_trace_id: front-end index + per-front-end query id) and the id
// rides the wire on SubQueryMsg/SubQueryReplyMsg; ingest mutations get
// ingest_trace_id (shard + LSN) on UpdateMsg and the anti-entropy stream
// gets sync_trace_id. Components append TraceEvents — span endpoints for
// plan -> admit -> dispatch -> node queue -> match -> reply -> done — to
// per-shard rings owned by the Tracer.
//
// Clock domains: events carry timestamps from the recorder's own
// net::Clock. Under the emulated cluster that is one virtual clock, so
// traces are bit-reproducible per seed; under TcpCluster each reactor
// shard has its own WallClock with a shared construction epoch, so
// cross-shard skew is microseconds. The SpanAssembler therefore never
// subtracts across domains: node-side durations come from node
// timestamps, front-end durations from front-end timestamps, and network
// time is the signed residual between the two.
//
// Threading: a ring is plain memory written ONLY by its owning shard
// thread (the same ownership discipline as the rest of the sharded
// datapath — this layer must stay clean under the nightly TSan bench).
// Cross-thread collection marshals onto the owner (TcpCluster uses
// TcpDriver::run_on) or waits for quiescence. The only shared mutable
// state is the flight-dump list, which sits behind a mutex on the rare
// anomaly path.
//
// Flight recorder: the rings double as the crash-time record. When an
// invariant trips or a query times out, anomaly() renders the recent
// event timeline plus a metrics snapshot (via a harness-installed
// renderer) and retains the dump, turning "chaos soak failed on seed 17"
// into an actionable timeline.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace roar::core {

enum class TraceStage : uint8_t {
  kSubmit = 1,      // frontend: query accepted for planning
  kAdmitShed = 2,   // frontend: refused by the admission controller
  kPlanned = 3,     // frontend: sweep+partition done (dur = wall cost)
  kDispatch = 4,    // frontend: sub-query sent (part, aux = target node)
  kNodeRecv = 5,    // node: sub-query arrived (actor = node)
  kNodeShed = 6,    // node: refused at the executor queue bound
  kNodeExec = 7,    // node: left the queue, matching starts
  kNodeDone = 8,    // node: reply sent (dur = service_s)
  kReplyRecv = 9,   // frontend: reply arrived (dur = reported service_s)
  kPartTimeout = 10,   // frontend: first expiry, timer extended
  kFailure = 11,       // frontend: failure declared (aux = dead node)
  kQueryDone = 12,     // frontend: query finished (dur = e2e latency)
  kQueryFail = 13,     // frontend: query failed (crash / not ready)
  kUpdateIssued = 14,  // ingest router: op committed (actor = shard)
  kUpdateApplied = 15, // replica: op applied (actor = node, part = shard)
  kSyncReq = 16,       // ingest router: catch-up request (actor = node)
  kSyncChunk = 17,     // ingest router: chunk sent (aux = ops carried)
};

const char* trace_stage_name(TraceStage s);

struct TraceEvent {
  uint64_t trace_id = 0;
  TraceStage stage = TraceStage::kSubmit;
  uint32_t actor = 0;  // front-end index, node id or ingest shard
  uint32_t part = 0;   // sub-query part id (queries) / shard (ingest)
  uint32_t aux = 0;    // stage-specific: target node, shed flag, op count
  double at = 0.0;     // recorder's clock; see clock-domain note above
  double dur = 0.0;    // stage duration where the stage knows it
};

// Deterministic trace-id derivation — no RNG draw, no wall clock, so
// stamping ids cannot perturb any seeded stream or timer schedule.
// Query ids are per-front-end and start at 1, so (index+1, id) is unique
// cluster-wide; the high bit marks ingest streams.
inline uint64_t query_trace_id(uint32_t frontend_index, uint64_t query_id) {
  return (static_cast<uint64_t>(frontend_index + 1) << 32) |
         (query_id & 0xffffffffull);
}
inline uint64_t ingest_trace_id(uint32_t shard, uint64_t lsn) {
  return (1ull << 63) | (static_cast<uint64_t>(shard) << 40) |
         (lsn & 0xffffffffffull);
}
inline uint64_t sync_trace_id(uint32_t node, uint32_t shard) {
  return (1ull << 62) | (static_cast<uint64_t>(node) << 16) | shard;
}

class Tracer {
 public:
  explicit Tracer(size_t shards = 1, size_t ring_capacity = 8192);

  size_t shards() const { return rings_.size(); }
  size_t ring_capacity() const { return capacity_; }

  // Disables event recording (anomaly dumps stay on). The loopback bench
  // uses this for the tracing-overhead measurement.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Owner-shard-thread only (see threading note above).
  void record(size_t shard, const TraceEvent& ev);
  void record(size_t shard, uint64_t trace_id, TraceStage stage,
              uint32_t actor, uint32_t part, double at, double dur = 0.0,
              uint32_t aux = 0) {
    TraceEvent ev;
    ev.trace_id = trace_id;
    ev.stage = stage;
    ev.actor = actor;
    ev.part = part;
    ev.aux = aux;
    ev.at = at;
    ev.dur = dur;
    record(shard, ev);
  }

  // Total events ever recorded (sum over rings; racy-but-monotone when
  // shards are live).
  uint64_t events_recorded() const;
  // One ring's retained events, oldest first. Owner thread or quiescence.
  std::vector<TraceEvent> events(size_t shard) const;
  // All rings merged and sorted by (at, trace_id, stage). `on_shard(s,
  // read)` must run ring s's read on the ring's owning thread.
  using RingReader =
      std::function<void(size_t shard, const std::function<void()>& read)>;
  std::vector<TraceEvent> collect(const RingReader& on_shard) const;

  // --- flight recorder --------------------------------------------------
  struct FlightDump {
    double at = 0.0;
    uint64_t trace_id = 0;  // offending trace; 0 for whole-cluster trips
    std::string reason;
    std::string rendered;  // timeline + metrics snapshot
  };

  // Harness-installed renderer producing the dump body; called from the
  // anomaly() caller's thread (harnesses marshal their cross-shard ring
  // reads inside it). Without a renderer, dumps record reason/id only.
  using DumpRenderer =
      std::function<std::string(uint64_t trace_id, const std::string& reason)>;
  void set_dump_renderer(DumpRenderer fn);

  // Records a flight dump for an invariant trip or query timeout. Caps at
  // dump_cap dumps per run (rendering is deliberately expensive); the
  // overflow count is still tracked.
  void anomaly(uint64_t trace_id, const std::string& reason, double at);
  std::vector<FlightDump> dumps() const;
  size_t dump_count() const;
  uint64_t anomalies_seen() const {
    return anomalies_.load(std::memory_order_relaxed);
  }
  void set_dump_cap(size_t n) { dump_cap_ = n; }

 private:
  struct Ring {
    std::vector<TraceEvent> slots;
    // Monotone write cursor; relaxed-atomic only so events_recorded() may
    // peek from other threads. Slot contents stay owner-thread-only.
    std::atomic<uint64_t> head{0};
  };

  size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::vector<std::unique_ptr<Ring>> rings_;

  mutable std::mutex dumps_mu_;
  DumpRenderer renderer_;
  std::vector<FlightDump> dumps_;
  size_t dump_cap_ = 16;
  std::atomic<uint64_t> anomalies_{0};
};

// --- span-tree assembly -------------------------------------------------

// One sub-query part of an assembled query trace. Times are -1 when the
// corresponding event was not observed (e.g. node side of a dropped
// message, or a part that never completed).
struct SpanPart {
  uint32_t part = 0;
  uint32_t node = 0xffffffff;
  double dispatch_at = -1.0;  // frontend clock
  double reply_at = -1.0;     // frontend clock
  double recv_at = -1.0;      // node clock
  double exec_at = -1.0;      // node clock
  double done_at = -1.0;      // node clock
  double service_s = 0.0;
  bool shed = false;
  bool timed_out = false;  // at least one expiry fired
  bool failed = false;     // failure declared against its node

  // Node-side queue wait; falls back to done-service when exec was not
  // separately recorded. -1 when the node side is unobserved.
  double queue_s() const;
  // Signed two-way network residual: (reply - dispatch) minus the
  // node-side span. -1 when either side is unobserved.
  double network_s() const;
  bool replied() const { return reply_at >= 0.0; }
};

// The assembled fan-out tree of one query, with the per-stage breakdown
// that attributes an end-to-end latency to planning, dispatch, node
// queueing, matching, network and reply aggregation.
struct QueryTrace {
  uint64_t trace_id = 0;
  uint32_t frontend = 0;
  double submit_at = -1.0;
  double planned_at = -1.0;
  double done_at = -1.0;
  double plan_wall_s = 0.0;  // scheduler+planner wall cost (kPlanned dur)
  double e2e_s = -1.0;       // kQueryDone dur
  bool admit_shed = false;
  bool failed = false;
  std::vector<SpanPart> parts;  // sorted by part id

  bool complete() const { return done_at >= 0.0 && submit_at >= 0.0; }
  // Index into parts of the straggler — the last reply the front-end
  // waited for. size_t(-1) when no part replied.
  size_t straggler() const;

  // Per-stage breakdown along the critical (straggler) path. The fields
  // sum to e2e exactly by construction: network_s absorbs the signed
  // residual, so the identity holds within clock granularity even across
  // the two clock domains.
  struct Breakdown {
    double plan_s = 0.0;      // submit -> planned (frontend)
    double dispatch_s = 0.0;  // planned -> straggler sent (frontend)
    double node_queue_s = 0.0;   // straggler recv -> exec (node)
    double node_service_s = 0.0; // straggler exec -> done (node)
    double network_s = 0.0;   // signed residual of the straggler RTT
    double tail_s = 0.0;      // straggler reply -> query done (frontend)
    double total() const {
      return plan_s + dispatch_s + node_queue_s + node_service_s +
             network_s + tail_s;
    }
  };
  Breakdown breakdown() const;

  // Deterministic rendering (fixed %.9f formatting, sorted parts): the
  // emulated cluster's span trees compare byte-identical across runs of
  // one seed.
  std::string to_text() const;
};

class SpanAssembler {
 public:
  // Groups query-stage events by trace id and assembles one QueryTrace
  // per query, sorted by trace id. Ingest-stage events are ignored.
  static std::vector<QueryTrace> assemble(const std::vector<TraceEvent>& evs);
  // Deterministic multi-tree rendering, one block per query.
  static std::string render_all(const std::vector<TraceEvent>& evs);
};

// Renders a flight-recorder dump body: the anomaly header, the retained
// event timeline (merged, sorted), the offending trace's assembled span
// tree when available, and the metrics exposition text.
std::string render_flight_dump(const std::vector<TraceEvent>& events,
                               uint64_t focus_trace,
                               const std::string& reason,
                               const std::string& metrics_text);

}  // namespace roar::core
