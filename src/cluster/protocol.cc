#include "cluster/protocol.h"

#include "common/logging.h"
#include "net/framing.h"

namespace roar::cluster {
namespace {

template <class T>
concept IsMessage = requires { T::kType; };

template <class T, class Io>
void visit_fields(T& v, Io& io) {
  if constexpr (requires { v.fields(io); }) {
    v.fields(io);
  } else {
    fields(io, v);
  }
}

class Encoder {
 public:
  static constexpr bool kDecodes = false;
  explicit Encoder(net::Writer& w) : w_(w) {}

  template <class... Ts>
  void operator()(const Ts&... v) { (put(v), ...); }

 private:
  void put(bool v) { w_.u8(v ? 1 : 0); }
  void put(uint8_t v) { w_.u8(v); }
  void put(uint32_t v) { w_.u32(v); }
  void put(uint64_t v) { w_.u64(v); }
  void put(int64_t v) { w_.u64(static_cast<uint64_t>(v)); }
  void put(double v) { w_.f64(v); }
  void put(RingId v) { w_.ring_id(v); }
  void put(const std::string& s) { w_.str(s); }
  template <class T>
  void put(const std::vector<T>& v) {
    w_.u32(static_cast<uint32_t>(v.size()));
    for (const T& e : v) put(e);
  }
  template <class T>
  void put(const T& v) {
    if constexpr (IsMessage<T>) {
      w_.bytes(v.encode());
    } else {
      // The field list takes a mutable reference so one list serves both
      // directions; the encoder only reads through it.
      visit_fields(const_cast<T&>(v), *this);
    }
  }

  net::Writer& w_;
};

// What an empty T costs on the wire: empty strings and vectors are their
// count alone, so no valid T encodes shorter. The hostile-count guard
// charges each vector element this much.
template <class T>
size_t min_wire_size() {
  static const size_t bytes = [] {
    net::Writer w;
    Encoder e(w);
    e(T{});
    return w.data().size();
  }();
  return bytes;
}

class Decoder {
 public:
  static constexpr bool kDecodes = true;
  explicit Decoder(net::Reader& r) : r_(r) {}

  template <class... Ts>
  void operator()(Ts&... v) { (get(v), ...); }

 private:
  void get(bool& v) { v = r_.u8() != 0; }
  void get(uint8_t& v) { v = r_.u8(); }
  void get(uint32_t& v) { v = r_.u32(); }
  void get(uint64_t& v) { v = r_.u64(); }
  void get(int64_t& v) { v = static_cast<int64_t>(r_.u64()); }
  void get(double& v) { v = r_.f64(); }
  void get(RingId& v) { v = r_.ring_id(); }
  void get(std::string& s) { s = r_.str(); }
  template <class T>
  void get(std::vector<T>& v) {
    uint32_t n = r_.u32();
    // A count the remaining bytes cannot carry is hostile input, rejected
    // before any allocation (the mutation fuzz drives this path).
    if (static_cast<uint64_t>(n) * min_wire_size<T>() > r_.remaining()) {
      r_.fail();
      return;
    }
    v.resize(n);
    for (T& e : v) get(e);
  }
  template <class T>
  void get(T& v) {
    if constexpr (IsMessage<T>) {
      net::Bytes raw = r_.bytes();
      if (auto m = T::decode(raw)) {
        v = std::move(*m);
      } else {
        r_.fail();
      }
    } else {
      visit_fields(v, *this);
    }
  }

  net::Reader& r_;
};

// Senders keep every message far below the transport frame cap (for
// SYNC_DATA, IngestConfig::sync_chunk_bytes); a frame at the cap would
// wedge the peer's decoder. Trip loudly rather than ship it silently.
[[gnu::cold, gnu::noinline]] void log_above_frame_cap(MsgType t, size_t n) {
  ROAR_LOG(kError) << "message type " << static_cast<int>(t) << " encodes to "
                   << n << " bytes, above the " << net::kMaxFrameBytes
                   << "-byte frame cap";
}

}  // namespace

template <class M, MsgType kTag>
net::Bytes Message<M, kTag>::encode() const {
  net::Writer w;
  w.u8(static_cast<uint8_t>(kTag));
  Encoder e(w);
  const_cast<M&>(static_cast<const M&>(*this)).fields(e);
  net::Bytes out = w.take();
  if (out.size() > net::kMaxFrameBytes) log_above_frame_cap(kTag, out.size());
  return out;
}

template <class M, MsgType kTag>
std::optional<M> Message<M, kTag>::decode(net::ByteView b) {
  if (b.empty() || b[0] != static_cast<uint8_t>(kTag)) return std::nullopt;
  net::Reader r(b.subspan(1));
  M m;
  Decoder d(r);
  m.fields(d);
  if (!r.ok()) return std::nullopt;
  if constexpr (requires { m.valid(); }) {
    if (!m.valid()) return std::nullopt;
  }
  return m;
}

template struct Message<SubQueryMsg, MsgType::kSubQuery>;
template struct Message<SubQueryReplyMsg, MsgType::kSubQueryReply>;
template struct Message<FetchCompleteMsg, MsgType::kFetchComplete>;
template struct Message<NodeStatsMsg, MsgType::kNodeStats>;
template struct Message<UpdateMsg, MsgType::kUpdate>;
template struct Message<UpdateAckMsg, MsgType::kUpdateAck>;
template struct Message<SyncReqMsg, MsgType::kSyncReq>;
template struct Message<SyncDataMsg, MsgType::kSyncData>;
template struct Message<ViewDeltaMsg, MsgType::kViewDelta>;
template struct Message<ViewAckMsg, MsgType::kViewAck>;
template struct Message<ViewPullMsg, MsgType::kViewPull>;
template struct Message<ViewInterestMsg, MsgType::kViewInterest>;

std::optional<MsgType> peek_type(net::ByteView b) {
  if (b.empty()) return std::nullopt;
  uint8_t t = b[0];
  // 3, 4 and 6 are the retired kRangePush/kFetchOrder/kObjectUpdate slots.
  if (t < 1 || t > 15 || t == 3 || t == 4 || t == 6) return std::nullopt;
  return static_cast<MsgType>(t);
}

}  // namespace roar::cluster
