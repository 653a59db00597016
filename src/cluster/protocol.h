// Wire protocol of the emulated ROAR cluster.
//
// All component communication — front-end to node sub-queries and
// replies, control-plane view deltas, acks, pulls and interest arcs,
// §4.5 fetch confirmations, node load reports, and the ingest router's
// replicated ops, acks and anti-entropy sync — is encoded with
// net::Writer/Reader and delivered over net::InProcNetwork (or,
// byte-identically, the TCP transport). Keeping a real serialised protocol
// (rather than direct method calls) means the emulated cluster exercises
// the same decode paths a deployment would.
//
// A message is its field list plus an optional validity predicate:
//
//   struct FooMsg : Message<FooMsg, MsgType::kFoo> {
//     uint32_t a = 0;
//     std::vector<uint64_t> b;
//     template <class Io> void fields(Io& io) { io(a, b); }
//     bool valid() const { return a != 0; }  // optional
//   };
//
// `fields` names the fields once, in wire order; protocol.cc drives both
// encode() and decode() from it, so a field is added in one place. Wire
// layout after the leading type byte: integers little-endian at their own
// width (int64_t as its two's-complement u64), double as 8 bytes, bool as
// one byte (decoded as != 0), RingId as its raw u64, std::string and
// std::vector as a u32 count then the elements. A vector's count is
// rejected before any allocation when the remaining bytes cannot hold
// that many elements at an empty element's wire size. Nested structs
// are inlined through their own field list; a nested message travels as
// its own length-prefixed encoding and decodes through its own predicate.
// decode() calls valid(), when present, once the fields parsed: checks
// that are not about the layout live there.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/ring_id.h"
#include "core/cluster_view.h"
#include "net/serialize.h"
#include "net/transport.h"

namespace roar::cluster {

using NodeId = uint32_t;

// Well-known endpoint addresses of a ROAR deployment. Front-ends are
// per-instance (§4.8: many front-ends serve one membership view); the
// ingest router serves the historical "update server" role, so it owns
// that address.
inline net::Address node_address(NodeId id) { return 100 + id; }
inline net::Address frontend_address(uint32_t i) { return 10 + i; }
inline constexpr net::Address kMembershipAddr = 0;
inline constexpr net::Address kUpdateServerAddr = 2;
inline constexpr uint32_t kMaxFrontends = 90;  // 10..99, below the nodes

enum class MsgType : uint8_t {
  kSubQuery = 1,
  kSubQueryReply = 2,
  // 3 (kRangePush) and 4 (kFetchOrder) are retired: ranges and §4.5
  // fetch orders are now derived from kViewDelta broadcasts. 6
  // (kObjectUpdate) is retired too: updates travel as kUpdate through the
  // ingest router. The values stay reserved so captured traces remain
  // unambiguous.
  kFetchComplete = 5,  // node -> control plane: §4.5 download done
  kNodeStats = 7,      // node -> control plane (periodic load report)
  kUpdate = 8,         // ingest router -> replica: one logged ingest op
  kUpdateAck = 9,      // replica -> router: applied-LSN watermark
  kSyncReq = 10,       // replica -> router: anti-entropy catch-up request
  kSyncData = 11,      // router -> replica: ops since LSN / full segment
  kViewDelta = 12,     // control plane -> subscriber: one view epoch step
  kViewAck = 13,       // subscriber -> parent/control plane: epoch watermark
  kViewPull = 14,      // subscriber -> control plane: catch-up request
  kViewInterest = 15,  // node -> control plane: ring arcs it depends on
};

// Supplies encode()/decode() to message M from M::fields (see above).
// Defined in protocol.cc, which instantiates it for every message type.
template <class M, MsgType kTag>
struct Message {
  static constexpr MsgType kType = kTag;

  net::Bytes encode() const;
  static std::optional<M> decode(net::ByteView b);
};

// Field lists of the core types messages embed.
template <class Io>
void fields(Io& io, core::ViewMember& m) {
  io(m.id, m.position, m.speed, m.alive);
}

template <class Io>
void fields(Io& io, core::ViewDelta& d) {
  io(d.epoch, d.prev_epoch, d.full, d.target_p, d.safe_p, d.storage_p,
     d.upserts, d.removes, d.pending);
}

// An Arc is (begin, length); decoding rebuilds it through its constructor.
template <class Io>
void fields(Io& io, Arc& a) {
  RingId begin = a.begin();
  uint64_t length = a.length();
  io(begin, length);
  if constexpr (Io::kDecodes) a = Arc(begin, length);
}

struct SubQueryMsg : Message<SubQueryMsg, MsgType::kSubQuery> {
  uint64_t query_id = 0;
  uint32_t part_id = 0;
  // End-to-end trace id (core/tracer.h): stamped by the front-end,
  // echoed on the reply, so node-side spans join the query's tree.
  uint64_t trace = 0;
  RingId point;
  RingId window_begin;
  RingId window_end;
  uint32_t pq = 1;
  double share = 0.0;
  // core::QueryClass of the parent query: nodes shed lower-priority
  // classes first when their backlog nears its Spang bound.
  uint8_t klass = 0;

  template <class Io>
  void fields(Io& io) {
    io(query_id, part_id, trace, point, window_begin, window_end, pq, share,
       klass);
  }
};

struct SubQueryReplyMsg : Message<SubQueryReplyMsg, MsgType::kSubQueryReply> {
  uint64_t query_id = 0;
  uint32_t part_id = 0;
  uint64_t trace = 0;  // echoed from the sub-query
  uint64_t scanned = 0;   // metadata matched against the query
  uint64_t matches = 0;
  double service_s = 0.0;  // pure processing time (for speed estimation)
  // 1 = the node refused this sub-query at its queue bound. The reply
  // still proves liveness; the front-end books the window as uncovered
  // (harvest loss) instead of waiting out a timeout.
  uint8_t shed = 0;

  template <class Io>
  void fields(Io& io) {
    io(query_id, part_id, trace, scanned, matches, service_s, shed);
  }
};

// One step of the control state (core/cluster_view.h), disseminated by
// the ControlPlane. Incremental deltas apply against their carried basis
// epoch (possibly compacted across many steps); full snapshots replace
// the subscriber's state and may re-apply the current epoch (idempotent —
// this is what retransmission and revival catch-up lean on).
//
// Tree dissemination: a message carrying `relay_targets` instructs the
// recipient to forward the delta onward — it splits the target list into
// up to `relay_fanout` contiguous chunks, sends each chunk's head the
// chunk's tail as that child's own relay_targets, and aggregates the
// children's ack watermarks into its own upward ack. `ack_to` names where
// the recipient's kViewAck must go: the control plane for direct sends,
// the forwarding relay for tree-disseminated deltas.
struct ViewDeltaMsg : Message<ViewDeltaMsg, MsgType::kViewDelta> {
  core::ViewDelta delta;
  net::Address ack_to = kMembershipAddr;
  uint8_t relay_fanout = 0;
  std::vector<net::Address> relay_targets;

  template <class Io>
  void fields(Io& io) { io(delta, ack_to, relay_fanout, relay_targets); }

  // A full snapshot replaces the member set wholesale, so removals beside
  // it would be ambiguous. Relay targets without a fanout give the
  // recipient no way to split the forwarding work. An incremental delta
  // whose basis is at or past its own epoch could never have been
  // produced by the delta log.
  bool valid() const {
    if (!relay_targets.empty() && relay_fanout == 0) return false;
    return delta.full ? delta.removes.empty() : delta.prev_epoch < delta.epoch;
  }
};

// Subscriber -> parent relay or control plane: "my subtree has applied
// `epoch`". The control plane's per-subscriber watermarks come from
// these; they gate surplus drops after a p increase and steer laggard
// retransmission. A relay reports the minimum watermark over itself and
// its children, with `agg_count` subscribers covered (1 = just the
// sender), so the control plane's per-epoch ack work is O(fanout), not
// O(members). Front-ends piggyback their periodic latency digest (zeros
// from storage nodes) — the adaptive-p controller's query-side signal.
struct ViewAckMsg : Message<ViewAckMsg, MsgType::kViewAck> {
  net::Address subscriber = 0;
  uint64_t epoch = 0;
  uint32_t agg_count = 1;  // subscribers this watermark covers (>= 1)
  // Latency digest over the front-end's current window. `completed` is
  // the window's query count — 0 marks a plain watermark ack (or an
  // empty window), which carries no latency signal and must not steer
  // the controller.
  uint64_t completed = 0;
  double p99_s = 0.0;
  double mean_s = 0.0;

  template <class Io>
  void fields(Io& io) {
    io(subscriber, epoch, agg_count, completed, p99_s, mean_s);
  }

  // A watermark covering zero subscribers is meaningless: even a plain ack
  // covers its sender.
  bool valid() const { return agg_count > 0; }
};

// Node -> control plane: the ring arcs this node's control logic depends
// on (its stored arc plus margin). The control plane thereafter skips the
// node on view waves that touch none of its arcs (level changes, full
// snapshots and changes to the node itself always qualify); an empty arc
// list restores full interest. Refreshed whenever the node's recomputed
// coverage escapes the registered arcs (reconfigure, join, range move).
struct ViewInterestMsg : Message<ViewInterestMsg, MsgType::kViewInterest> {
  net::Address subscriber = 0;
  uint64_t epoch = 0;  // view epoch the arcs were derived from
  std::vector<Arc> arcs;

  template <class Io>
  void fields(Io& io) { io(subscriber, epoch, arcs); }
};

// Subscriber -> control plane: "send me everything after `have_epoch`".
// Sent on a detected gap and on restart after a crash; answered with the
// retained delta suffix or a full snapshot.
struct ViewPullMsg : Message<ViewPullMsg, MsgType::kViewPull> {
  net::Address subscriber = 0;
  uint64_t have_epoch = 0;

  template <class Io>
  void fields(Io& io) { io(subscriber, have_epoch); }
};

struct FetchCompleteMsg : Message<FetchCompleteMsg, MsgType::kFetchComplete> {
  NodeId node = 0;
  uint32_t new_p = 1;

  template <class Io>
  void fields(Io& io) { io(node, new_p); }
};

struct NodeStatsMsg : Message<NodeStatsMsg, MsgType::kNodeStats> {
  NodeId node = 0;
  double busy_fraction = 0.0;
  double observed_rate = 0.0;  // metadata/s

  template <class Io>
  void fields(Io& io) { io(node, busy_fraction, observed_rate); }
};

// One logged index mutation, replicated by the ingest router to every
// replica of the owning shard. (shard, lsn) totally orders the shard's
// history; `enc_seed` makes every replica's encryption of an added
// document byte-identical (each seeds its encoder Rng with it), which is
// what makes replica match results byte-comparable.
struct UpdateMsg : Message<UpdateMsg, MsgType::kUpdate> {
  uint32_t shard = 0;
  uint64_t lsn = 0;
  uint8_t op = 0;  // 0 = add document, 1 = delete document
  RingId doc_id;
  uint64_t enc_seed = 0;  // deterministic encryption stream (add only)
  std::string path;
  std::vector<std::string> keywords;
  int64_t size_bytes = 0;
  int64_t mtime = 0;
  // Ingest trace id (core/tracer.h: shard + LSN), stamped at commit and
  // carried through replication and anti-entropy alike.
  uint64_t trace = 0;

  static constexpr uint8_t kAdd = 0;
  static constexpr uint8_t kDelete = 1;

  template <class Io>
  void fields(Io& io) {
    io(shard, lsn, op, doc_id, enc_seed, path, keywords, size_bytes, mtime,
       trace);
  }
  bool valid() const { return op <= kDelete; }
};

// Replica -> router: "my contiguously applied LSN for `shard` is
// `applied_lsn`". The router's per-replica watermarks come from these.
struct UpdateAckMsg : Message<UpdateAckMsg, MsgType::kUpdateAck> {
  NodeId node = 0;
  uint32_t shard = 0;
  uint64_t applied_lsn = 0;

  template <class Io>
  void fields(Io& io) { io(node, shard, applied_lsn); }
};

// Replica -> router: anti-entropy. "Send me everything for `shard` after
// `have_lsn`." Sent periodically and whenever a gap is detected. A reply
// never exceeds one chunk (IngestConfig::sync_chunk_{ops,bytes}); the
// requester clocks the rest of the stream itself: each applied chunk is
// the credit that releases the next request. Mid full-segment transfer
// the request pins the segment generation it is accumulating
// (`segment_lsn` = the generation's issued LSN, `chunk_offset` = the next
// op index it needs); both stay 0 on a fresh request.
struct SyncReqMsg : Message<SyncReqMsg, MsgType::kSyncReq> {
  NodeId node = 0;
  uint32_t shard = 0;
  uint64_t have_lsn = 0;
  uint64_t segment_lsn = 0;   // full-segment generation being resumed
  uint64_t chunk_offset = 0;  // next op index of that segment
  uint64_t trace = 0;         // sync-stream trace id (node + shard)

  template <class Io>
  void fields(Io& io) {
    io(node, shard, have_lsn, segment_lsn, chunk_offset, trace);
  }
};

// Router -> replica: one catch-up chunk, never larger than the chunk
// budget (IngestConfig::sync_chunk_{ops,bytes}). Incremental
// (`full_segment` == 0: ops are a contiguous log suffix after the
// requested LSN) or one slice of a full
// segment (`full_segment` == 1: `ops` describe the shard's authoritative
// live state and the receiver reconciles its local state against them —
// sent when the requested LSN predates the router's retained log).
// `issued_lsn` is the router's latest LSN for the shard and doubles as
// the full segment's generation stamp: the receiver accumulates chunks
// only while it matches, and reconciles (jumping its watermark to
// `issued_lsn`) once all `total_ops` arrived. Incremental chunks leave
// chunk_offset/total_ops zero; the receiver re-requests while its
// applied LSN still trails `issued_lsn`.
struct SyncDataMsg : Message<SyncDataMsg, MsgType::kSyncData> {
  uint32_t shard = 0;
  uint8_t full_segment = 0;
  uint64_t issued_lsn = 0;
  uint64_t chunk_offset = 0;  // full segments: first op slot of this chunk
  uint64_t total_ops = 0;     // full segments: segment size in ops
  uint64_t trace = 0;         // echoed from the clocking SyncReqMsg
  std::vector<UpdateMsg> ops;

  template <class Io>
  void fields(Io& io) {
    io(shard, full_segment, issued_lsn, chunk_offset, total_ops, trace, ops);
  }

  // Chunk geometry: a full-segment chunk must fit inside its declared
  // segment; incremental chunks carry none.
  bool valid() const {
    if (full_segment > 1) return false;
    if (full_segment == 0) return chunk_offset == 0 && total_ops == 0;
    return chunk_offset <= total_ops && ops.size() <= total_ops - chunk_offset;
  }
};

// Reads the leading type byte without consuming the payload.
std::optional<MsgType> peek_type(net::ByteView b);

}  // namespace roar::cluster
