#include "core/tracer.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace roar::core {

const char* trace_stage_name(TraceStage s) {
  switch (s) {
    case TraceStage::kSubmit: return "submit";
    case TraceStage::kAdmitShed: return "admit_shed";
    case TraceStage::kPlanned: return "planned";
    case TraceStage::kDispatch: return "dispatch";
    case TraceStage::kNodeRecv: return "node_recv";
    case TraceStage::kNodeShed: return "node_shed";
    case TraceStage::kNodeExec: return "node_exec";
    case TraceStage::kNodeDone: return "node_done";
    case TraceStage::kReplyRecv: return "reply_recv";
    case TraceStage::kPartTimeout: return "part_timeout";
    case TraceStage::kFailure: return "failure";
    case TraceStage::kQueryDone: return "query_done";
    case TraceStage::kQueryFail: return "query_fail";
    case TraceStage::kUpdateIssued: return "update_issued";
    case TraceStage::kUpdateApplied: return "update_applied";
    case TraceStage::kSyncReq: return "sync_req";
    case TraceStage::kSyncChunk: return "sync_chunk";
  }
  return "unknown";
}

Tracer::Tracer(size_t shards, size_t ring_capacity)
    : capacity_(ring_capacity == 0 ? 1 : ring_capacity) {
  if (shards == 0) shards = 1;
  rings_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    auto ring = std::make_unique<Ring>();
    ring->slots.resize(capacity_);
    rings_.push_back(std::move(ring));
  }
}

void Tracer::record(size_t shard, const TraceEvent& ev) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Ring& ring = *rings_[shard < rings_.size() ? shard : 0];
  uint64_t head = ring.head.load(std::memory_order_relaxed);
  ring.slots[head % capacity_] = ev;
  ring.head.store(head + 1, std::memory_order_relaxed);
}

uint64_t Tracer::events_recorded() const {
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->head.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<TraceEvent> Tracer::events(size_t shard) const {
  std::vector<TraceEvent> out;
  if (shard >= rings_.size()) return out;
  const Ring& ring = *rings_[shard];
  uint64_t head = ring.head.load(std::memory_order_relaxed);
  if (head <= capacity_) {
    out.assign(ring.slots.begin(),
               ring.slots.begin() + static_cast<ptrdiff_t>(head));
  } else {
    size_t start = head % capacity_;
    out.reserve(capacity_);
    out.insert(out.end(), ring.slots.begin() + static_cast<ptrdiff_t>(start),
               ring.slots.end());
    out.insert(out.end(), ring.slots.begin(),
               ring.slots.begin() + static_cast<ptrdiff_t>(start));
  }
  return out;
}

std::vector<TraceEvent> Tracer::collect(const RingReader& on_shard) const {
  std::vector<TraceEvent> all;
  for (size_t s = 0; s < rings_.size(); ++s) {
    on_shard(s, [&] {
      auto evs = events(s);
      all.insert(all.end(), evs.begin(), evs.end());
    });
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              if (a.stage != b.stage) return a.stage < b.stage;
              if (a.actor != b.actor) return a.actor < b.actor;
              return a.part < b.part;
            });
  return all;
}

void Tracer::set_dump_renderer(DumpRenderer fn) {
  std::lock_guard<std::mutex> lock(dumps_mu_);
  renderer_ = std::move(fn);
}

void Tracer::anomaly(uint64_t trace_id, const std::string& reason,
                     double at) {
  anomalies_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(dumps_mu_);
  if (dumps_.size() >= dump_cap_) return;  // keep the first few timelines
  FlightDump dump;
  dump.at = at;
  dump.trace_id = trace_id;
  dump.reason = reason;
  if (renderer_) dump.rendered = renderer_(trace_id, reason);
  dumps_.push_back(std::move(dump));
}

std::vector<Tracer::FlightDump> Tracer::dumps() const {
  std::lock_guard<std::mutex> lock(dumps_mu_);
  return dumps_;
}

size_t Tracer::dump_count() const {
  std::lock_guard<std::mutex> lock(dumps_mu_);
  return dumps_.size();
}

// --- span-tree assembly -------------------------------------------------

double SpanPart::queue_s() const {
  if (recv_at < 0.0 || done_at < 0.0) return -1.0;
  if (exec_at >= 0.0) return exec_at - recv_at;
  return (done_at - recv_at) - service_s;
}

double SpanPart::network_s() const {
  if (dispatch_at < 0.0 || reply_at < 0.0) return -1.0;
  if (recv_at < 0.0 || done_at < 0.0) return -1.0;
  return (reply_at - dispatch_at) - (done_at - recv_at);
}

size_t QueryTrace::straggler() const {
  size_t best = static_cast<size_t>(-1);
  for (size_t i = 0; i < parts.size(); ++i) {
    if (!parts[i].replied()) continue;
    if (best == static_cast<size_t>(-1) ||
        parts[i].reply_at > parts[best].reply_at) {
      best = i;
    }
  }
  return best;
}

QueryTrace::Breakdown QueryTrace::breakdown() const {
  Breakdown b;
  if (submit_at < 0.0 || done_at < 0.0) return b;
  double planned = planned_at >= 0.0 ? planned_at : submit_at;
  b.plan_s = planned - submit_at;
  size_t strag = straggler();
  if (strag == static_cast<size_t>(-1)) {
    // Nothing replied (admission shed, instant failure): everything after
    // planning is aggregation tail, keeping the sum identity.
    b.tail_s = done_at - planned;
    return b;
  }
  const SpanPart& part = parts[strag];
  b.dispatch_s = part.dispatch_at - planned;
  double rtt = part.reply_at - part.dispatch_at;
  if (part.recv_at >= 0.0 && part.done_at >= 0.0) {
    double node_total = part.done_at - part.recv_at;
    double queue = part.queue_s();
    b.node_queue_s = queue;
    b.node_service_s = node_total - queue;
    b.network_s = rtt - node_total;  // signed residual, absorbs skew
  } else {
    b.network_s = rtt;  // node side unobserved (shed or lost)
  }
  b.tail_s = done_at - part.reply_at;
  return b;
}

namespace {

void append_time(std::string& out, const char* label, double t) {
  char buf[64];
  if (t < 0.0) {
    std::snprintf(buf, sizeof(buf), " %s=-", label);
  } else {
    std::snprintf(buf, sizeof(buf), " %s=%.9f", label, t);
  }
  out += buf;
}

}  // namespace

std::string QueryTrace::to_text() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "trace %016llx fe=%u parts=%zu",
                static_cast<unsigned long long>(trace_id), frontend,
                parts.size());
  out += buf;
  append_time(out, "submit", submit_at);
  append_time(out, "done", done_at);
  append_time(out, "e2e", e2e_s);
  if (admit_shed) out += " ADMIT_SHED";
  if (failed) out += " FAILED";
  out += "\n";
  for (const SpanPart& p : parts) {
    std::snprintf(buf, sizeof(buf), "  part %u node=%d", p.part,
                  p.node == 0xffffffff ? -1 : static_cast<int>(p.node));
    out += buf;
    append_time(out, "dispatch", p.dispatch_at);
    append_time(out, "recv", p.recv_at);
    append_time(out, "exec", p.exec_at);
    append_time(out, "done", p.done_at);
    append_time(out, "reply", p.reply_at);
    append_time(out, "service", p.service_s);
    if (p.shed) out += " SHED";
    if (p.timed_out) out += " TIMEOUT";
    if (p.failed) out += " FAILED";
    out += "\n";
  }
  if (complete()) {
    Breakdown b = breakdown();
    size_t strag = straggler();
    std::snprintf(buf, sizeof(buf),
                  "  breakdown plan=%.9f dispatch=%.9f queue=%.9f "
                  "service=%.9f network=%.9f tail=%.9f total=%.9f",
                  b.plan_s, b.dispatch_s, b.node_queue_s, b.node_service_s,
                  b.network_s, b.tail_s, b.total());
    out += buf;
    if (strag != static_cast<size_t>(-1)) {
      std::snprintf(buf, sizeof(buf), " straggler=part%u/node%u",
                    parts[strag].part, parts[strag].node);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::vector<QueryTrace> SpanAssembler::assemble(
    const std::vector<TraceEvent>& evs) {
  std::map<uint64_t, QueryTrace> traces;
  std::map<uint64_t, std::map<uint32_t, SpanPart>> parts;
  for (const TraceEvent& ev : evs) {
    if (ev.stage >= TraceStage::kUpdateIssued) continue;  // ingest stream
    QueryTrace& q = traces[ev.trace_id];
    q.trace_id = ev.trace_id;
    auto part_of = [&]() -> SpanPart& {
      SpanPart& p = parts[ev.trace_id][ev.part];
      p.part = ev.part;
      return p;
    };
    switch (ev.stage) {
      case TraceStage::kSubmit:
        q.frontend = ev.actor;
        q.submit_at = ev.at;
        break;
      case TraceStage::kAdmitShed:
        q.frontend = ev.actor;
        q.admit_shed = true;
        if (q.submit_at < 0.0) q.submit_at = ev.at;
        break;
      case TraceStage::kPlanned:
        q.planned_at = ev.at;
        q.plan_wall_s = ev.dur;
        break;
      case TraceStage::kDispatch: {
        SpanPart& p = part_of();
        p.dispatch_at = ev.at;
        p.node = ev.aux;
        break;
      }
      case TraceStage::kNodeRecv: {
        SpanPart& p = part_of();
        p.recv_at = ev.at;
        p.node = ev.actor;
        break;
      }
      case TraceStage::kNodeShed: {
        SpanPart& p = part_of();
        p.shed = true;
        p.node = ev.actor;
        break;
      }
      case TraceStage::kNodeExec:
        part_of().exec_at = ev.at;
        break;
      case TraceStage::kNodeDone: {
        SpanPart& p = part_of();
        p.done_at = ev.at;
        p.service_s = ev.dur;
        break;
      }
      case TraceStage::kReplyRecv: {
        SpanPart& p = part_of();
        p.reply_at = ev.at;
        if (ev.aux != 0) p.shed = true;
        if (p.service_s == 0.0) p.service_s = ev.dur;
        break;
      }
      case TraceStage::kPartTimeout:
        part_of().timed_out = true;
        break;
      case TraceStage::kFailure: {
        SpanPart& p = part_of();
        p.failed = true;
        if (p.node == 0xffffffff) p.node = ev.aux;
        break;
      }
      case TraceStage::kQueryDone:
        q.done_at = ev.at;
        q.e2e_s = ev.dur;
        break;
      case TraceStage::kQueryFail:
        q.failed = true;
        q.done_at = ev.at;
        break;
      default:
        break;
    }
  }
  std::vector<QueryTrace> out;
  out.reserve(traces.size());
  for (auto& [id, q] : traces) {
    auto it = parts.find(id);
    if (it != parts.end()) {
      q.parts.reserve(it->second.size());
      for (auto& [pid, p] : it->second) q.parts.push_back(p);
    }
    out.push_back(std::move(q));
  }
  return out;
}

std::string SpanAssembler::render_all(const std::vector<TraceEvent>& evs) {
  std::string out;
  for (const QueryTrace& q : assemble(evs)) out += q.to_text();
  return out;
}

std::string render_flight_dump(const std::vector<TraceEvent>& events,
                               uint64_t focus_trace,
                               const std::string& reason,
                               const std::string& metrics_text) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "=== FLIGHT DUMP trace=%016llx reason=",
                static_cast<unsigned long long>(focus_trace));
  out += buf;
  out += reason;
  out += " ===\n";
  std::snprintf(buf, sizeof(buf), "--- events (%zu retained) ---\n",
                events.size());
  out += buf;
  for (const TraceEvent& ev : events) {
    std::snprintf(buf, sizeof(buf),
                  "  t=%.9f trace=%016llx %-13s actor=%u part=%u aux=%u "
                  "dur=%.9f%s\n",
                  ev.at, static_cast<unsigned long long>(ev.trace_id),
                  trace_stage_name(ev.stage), ev.actor, ev.part, ev.aux,
                  ev.dur,
                  ev.trace_id == focus_trace && focus_trace != 0 ? "  <--"
                                                                 : "");
    out += buf;
  }
  if (focus_trace != 0) {
    for (const QueryTrace& q : SpanAssembler::assemble(events)) {
      if (q.trace_id == focus_trace) {
        out += "--- offending query ---\n";
        out += q.to_text();
        break;
      }
    }
  }
  if (!metrics_text.empty()) {
    out += "--- metrics ---\n";
    out += metrics_text;
  }
  return out;
}

}  // namespace roar::core
