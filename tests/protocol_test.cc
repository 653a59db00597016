// Wire-protocol serialization coverage: every message in cluster/protocol.h
// round-trips through serialize.h encoding AND length-prefixed framing, and
// every strict truncation of every message is rejected cleanly (no partial
// decode, no decoder corruption) — the guarantee a network-facing decoder
// must give against fragmented or hostile streams.
#include <gtest/gtest.h>

#include <set>

#include "cluster/protocol.h"
#include "common/rng.h"
#include "net/framing.h"

namespace roar::cluster {
namespace {

// Every live message type with non-default field values, as raw bytes.
std::vector<std::pair<std::string, net::Bytes>> sample_messages() {
  std::vector<std::pair<std::string, net::Bytes>> out;

  SubQueryMsg sq;
  sq.query_id = 0x0123456789ABCDEFull;
  sq.part_id = 7;
  sq.point = RingId::from_double(0.625);
  sq.window_begin = RingId::from_double(0.5);
  sq.window_end = RingId::from_double(0.625);
  sq.pq = 16;
  sq.share = 0.0625;
  sq.klass = 2;
  sq.trace = 0x0000000100000001ull;
  out.emplace_back("SubQuery", sq.encode());

  SubQueryReplyMsg rep;
  rep.query_id = 99;
  rep.part_id = 3;
  rep.scanned = 1'000'000;
  rep.matches = 41;
  rep.service_s = 0.125;
  rep.shed = 1;
  rep.trace = 0x0000000400000063ull;
  out.emplace_back("SubQueryReply", rep.encode());

  ViewDeltaMsg vd;
  vd.delta.prev_epoch = 0xDEADBEEFCAFDull;
  vd.delta.epoch = 0xDEADBEEFCAFEull;
  vd.delta.full = false;
  vd.delta.target_p = 4;
  vd.delta.safe_p = 8;
  vd.delta.storage_p = 8;
  vd.delta.upserts = {{7, RingId::from_double(0.125), 1.75, true},
                      {21, RingId::from_double(0.875), 0.5, false}};
  vd.delta.removes = {3, 4};
  vd.delta.pending = {7, 21};
  out.emplace_back("ViewDelta", vd.encode());

  ViewDeltaMsg vr;  // relay-forwarded compacted wave (tree dissemination)
  vr.delta.prev_epoch = 90;
  vr.delta.epoch = 99;
  vr.delta.full = false;
  vr.delta.target_p = 8;
  vr.delta.safe_p = 8;
  vr.delta.storage_p = 8;
  vr.delta.upserts = {{7, RingId::from_double(0.125), 1.75, true}};
  vr.ack_to = node_address(3);
  vr.relay_fanout = 4;
  vr.relay_targets = {node_address(5), node_address(6), node_address(9),
                      node_address(12), node_address(30)};
  out.emplace_back("ViewDeltaRelayed", vr.encode());

  ViewDeltaMsg vf;
  vf.delta.epoch = 99;
  vf.delta.full = true;  // full snapshots must carry no removes
  vf.delta.target_p = 16;
  vf.delta.safe_p = 16;
  vf.delta.storage_p = 8;
  vf.delta.upserts = {{0, RingId::from_double(0.5), 1.0, true}};
  vf.delta.pending = {};
  out.emplace_back("ViewFull", vf.encode());

  ViewAckMsg va;
  va.subscriber = frontend_address(2);
  va.epoch = 0xDEADBEEFCAFEull;
  va.completed = 123456;
  va.p99_s = 0.875;
  va.mean_s = 0.25;
  out.emplace_back("ViewAck", va.encode());

  ViewAckMsg vagg;  // relay root's aggregated watermark
  vagg.subscriber = node_address(3);
  vagg.epoch = 99;
  vagg.agg_count = 125;
  out.emplace_back("ViewAckAggregated", vagg.encode());

  ViewPullMsg vp;
  vp.subscriber = node_address(17);
  vp.have_epoch = 41;
  out.emplace_back("ViewPull", vp.encode());

  ViewInterestMsg vi;
  vi.subscriber = node_address(17);
  vi.epoch = 41;
  vi.arcs = {Arc(RingId::from_double(0.125), uint64_t{1} << 60),
             Arc(RingId::from_double(0.875), uint64_t{1} << 59)};
  out.emplace_back("ViewInterest", vi.encode());

  FetchCompleteMsg fc;
  fc.node = 42;
  fc.new_p = 2;
  out.emplace_back("FetchComplete", fc.encode());

  NodeStatsMsg ns;
  ns.node = 17;
  ns.busy_fraction = 0.875;
  ns.observed_rate = 250'000.0;
  out.emplace_back("NodeStats", ns.encode());

  UpdateMsg up;
  up.shard = 5;
  up.lsn = 0xFEDCBA9876543210ull;
  up.op = UpdateMsg::kAdd;
  up.doc_id = RingId::from_double(0.375);
  up.enc_seed = 0xA5A5A5A5A5A5A5A5ull;
  up.path = "home/projects/roar/notes.txt";
  up.keywords = {"w8", "w91", "zz_nomatch_0"};
  up.size_bytes = -1;  // sign round-trip
  up.mtime = 1'600'000'000;
  up.trace = 0x8000050000000001ull;  // ingest-domain trace id (top bit set)
  out.emplace_back("Update", up.encode());

  UpdateMsg del;
  del.shard = 0;
  del.lsn = 1;
  del.op = UpdateMsg::kDelete;
  del.doc_id = RingId::from_double(0.5);
  out.emplace_back("UpdateDelete", del.encode());

  UpdateAckMsg ua;
  ua.node = 9;
  ua.shard = 5;
  ua.applied_lsn = 123456789;
  out.emplace_back("UpdateAck", ua.encode());

  SyncReqMsg sr;
  sr.node = 3;
  sr.shard = 7;
  sr.have_lsn = 42;
  sr.segment_lsn = 99;
  sr.chunk_offset = 4;
  sr.trace = 0x4000000000030007ull;  // sync-domain trace id
  out.emplace_back("SyncReq", sr.encode());

  SyncDataMsg sd;
  sd.shard = 7;
  sd.full_segment = 1;
  sd.issued_lsn = 99;
  sd.chunk_offset = 4;
  sd.total_ops = 6;
  sd.trace = 0x4000000000030007ull;
  sd.ops = {up, del};
  out.emplace_back("SyncData", sd.encode());

  SyncDataMsg sinc;  // incremental chunk: no chunk geometry
  sinc.shard = 2;
  sinc.full_segment = 0;
  sinc.issued_lsn = 17;
  sinc.ops = {up};
  out.emplace_back("SyncDataIncremental", sinc.encode());

  return out;
}

// Decodes `b` as whatever type its leading byte announces and re-encodes;
// byte-identical re-encoding proves lossless field round-trips without
// enumerating every field of every struct here.
net::Bytes reencode(const net::Bytes& b) {
  auto type = peek_type(b);
  if (!type) return {};
  switch (*type) {
    case MsgType::kSubQuery:
      if (auto m = SubQueryMsg::decode(b)) return m->encode();
      break;
    case MsgType::kSubQueryReply:
      if (auto m = SubQueryReplyMsg::decode(b)) return m->encode();
      break;
    case MsgType::kViewDelta:
      if (auto m = ViewDeltaMsg::decode(b)) return m->encode();
      break;
    case MsgType::kViewAck:
      if (auto m = ViewAckMsg::decode(b)) return m->encode();
      break;
    case MsgType::kViewPull:
      if (auto m = ViewPullMsg::decode(b)) return m->encode();
      break;
    case MsgType::kViewInterest:
      if (auto m = ViewInterestMsg::decode(b)) return m->encode();
      break;
    case MsgType::kFetchComplete:
      if (auto m = FetchCompleteMsg::decode(b)) return m->encode();
      break;
    case MsgType::kNodeStats:
      if (auto m = NodeStatsMsg::decode(b)) return m->encode();
      break;
    case MsgType::kUpdate:
      if (auto m = UpdateMsg::decode(b)) return m->encode();
      break;
    case MsgType::kUpdateAck:
      if (auto m = UpdateAckMsg::decode(b)) return m->encode();
      break;
    case MsgType::kSyncReq:
      if (auto m = SyncReqMsg::decode(b)) return m->encode();
      break;
    case MsgType::kSyncData:
      if (auto m = SyncDataMsg::decode(b)) return m->encode();
      break;
  }
  return {};
}

TEST(ProtocolCoverageTest, EveryMessageReencodesIdentically) {
  for (const auto& [name, bytes] : sample_messages()) {
    EXPECT_EQ(reencode(bytes), bytes) << name;
  }
}

std::string to_hex(const net::Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t c : b) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

// The exact bytes of every sample. A layout change made identically to
// encode and decode still re-encodes identically, so only pinned bytes
// catch it: the wire format is what peers of another build read.
struct PinnedBytes {
  const char* name;
  const char* hex;
};
constexpr PinnedBytes kPinned[] = {
    {"SubQuery",
     "01efcdab896745230107000000010000000100000000000000000000a0000000"
     "000000008000000000000000a010000000000000000000b03f02"},
    {"SubQueryReply",
     "02630000000000000003000000630000000400000040420f0000000000290000"
     "0000000000000000000000c03f01"},
    {"ViewDelta",
     "0cfecaefbeadde0000fdcaefbeadde0000000400000008000000080000000200"
     "0000070000000000000000000020000000000000fc3f01150000000000000000"
     "0000e0000000000000e03f000200000003000000040000000200000007000000"
     "15000000000000000000000000"},
    {"ViewDeltaRelayed",
     "0c63000000000000005a00000000000000000800000008000000080000000100"
     "0000070000000000000000000020000000000000fc3f01000000000000000067"
     "0000000405000000690000006a0000006d0000007000000082000000"},
    {"ViewFull",
     "0c63000000000000000000000000000000011000000010000000080000000100"
     "0000000000000000000000000080000000000000f03f01000000000000000000"
     "0000000000000000"},
    {"ViewAck",
     "0d0c000000fecaefbeadde00000100000040e2010000000000000000000000ec"
     "3f000000000000d03f"},
    {"ViewAckAggregated",
     "0d6700000063000000000000007d000000000000000000000000000000000000"
     "000000000000000000"},
    {"ViewPull", "0e750000002900000000000000"},
    {"ViewInterest",
     "0f75000000290000000000000002000000000000000000002000000000000000"
     "1000000000000000e00000000000000008"},
    {"FetchComplete", "052a00000002000000"},
    {"NodeStats", "0711000000000000000000ec3f0000000080840e41"},
    {"Update",
     "08050000001032547698badcfe000000000000000060a5a5a5a5a5a5a5a51c00"
     "0000686f6d652f70726f6a656374732f726f61722f6e6f7465732e7478740300"
     "0000020000007738030000007739310c0000007a7a5f6e6f6d617463685f30ff"
     "ffffffffffffff00105e5f000000000100000000050080"},
    {"UpdateDelete",
     "0800000000010000000000000001000000000000008000000000000000000000"
     "000000000000000000000000000000000000000000000000000000000000"},
    {"UpdateAck", "09090000000500000015cd5b0700000000"},
    {"SyncReq",
     "0a03000000070000002a00000000000000630000000000000004000000000000"
     "000700030000000040"},
    {"SyncData",
     "0b07000000016300000000000000040000000000000006000000000000000700"
     "030000000040020000007700000008050000001032547698badcfe0000000000"
     "00000060a5a5a5a5a5a5a5a51c000000686f6d652f70726f6a656374732f726f"
     "61722f6e6f7465732e74787403000000020000007738030000007739310c0000"
     "007a7a5f6e6f6d617463685f30ffffffffffffffff00105e5f00000000010000"
     "00000500803e0000000800000000010000000000000001000000000000008000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "00000000000000"},
    {"SyncDataIncremental",
     "0b02000000001100000000000000000000000000000000000000000000000000"
     "000000000000010000007700000008050000001032547698badcfe0000000000"
     "00000060a5a5a5a5a5a5a5a51c000000686f6d652f70726f6a656374732f726f"
     "61722f6e6f7465732e74787403000000020000007738030000007739310c0000"
     "007a7a5f6e6f6d617463685f30ffffffffffffffff00105e5f00000000010000"
     "0000050080"},
};

TEST(ProtocolCoverageTest, WireBytesArePinned) {
  auto samples = sample_messages();
  ASSERT_EQ(samples.size(), std::size(kPinned));
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].first, kPinned[i].name);
    EXPECT_EQ(to_hex(samples[i].second), kPinned[i].hex) << kPinned[i].name;
  }
}

TEST(ProtocolCoverageTest, PeekTypeAcceptsExactlyTheLiveTypes) {
  // peek_type keeps its range of live type bytes by hand. The samples
  // cover every live message, so their type bytes are that range: 0, the
  // retired 3, 4 and 6, and everything above 15 must be rejected.
  std::set<uint8_t> live;
  for (const auto& [name, bytes] : sample_messages()) {
    live.insert(bytes[0]);
    EXPECT_EQ(peek_type(bytes), static_cast<MsgType>(bytes[0])) << name;
  }
  EXPECT_EQ(live.size(), 12u);
  EXPECT_FALSE(peek_type({}).has_value());
  for (int t = 0; t < 256; ++t) {
    net::Bytes b{static_cast<uint8_t>(t)};
    EXPECT_EQ(peek_type(b).has_value(), live.count(b[0]) > 0) << t;
  }
}

TEST(ProtocolCoverageTest, EveryMessageSurvivesFraming) {
  // All messages through one frame stream, fed one byte at a time — the
  // exact path TCP delivery takes under worst-case fragmentation.
  auto samples = sample_messages();
  net::Bytes stream;
  for (const auto& [name, bytes] : samples) {
    net::Bytes f = net::frame(bytes);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  net::FrameDecoder dec;
  size_t received = 0;
  for (uint8_t byte : stream) {
    dec.feed(&byte, 1);
    while (auto f = dec.next()) {
      ASSERT_LT(received, samples.size());
      EXPECT_EQ(*f, samples[received].second) << samples[received].first;
      EXPECT_EQ(reencode(*f), *f);
      ++received;
    }
  }
  EXPECT_EQ(received, samples.size());
  EXPECT_FALSE(dec.failed());
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(ProtocolCoverageTest, EveryTruncationIsRejected) {
  for (const auto& [name, bytes] : sample_messages()) {
    for (size_t len = 0; len < bytes.size(); ++len) {
      net::Bytes prefix(bytes.begin(), bytes.begin() + len);
      EXPECT_TRUE(reencode(prefix).empty())
          << name << " truncated to " << len << " bytes decoded";
    }
  }
}

TEST(ProtocolCoverageTest, CorruptTailsNeverCrashAndNeverOverread) {
  // Flipping bytes after the type tag must yield either a clean reject or
  // a decode whose re-encoding is well-formed — never UB (run under
  // sanitizers via the normal build flags). Fixed-layout messages must
  // re-encode at the original size; messages carrying strings (a flipped
  // length prefix legally reframes the tail) must instead re-encode to a
  // decoding fixed point.
  Rng rng(123);
  for (const auto& [name, bytes] : sample_messages()) {
    // Count-bearing and string-bearing messages legally reframe their
    // tail under a flipped length prefix: they must re-encode to a
    // decoding fixed point rather than the original size.
    bool variable = name == "Update" || name == "UpdateDelete" ||
                    name == "SyncData" || name == "SyncDataIncremental" ||
                    name == "ViewDelta" || name == "ViewFull" ||
                    name == "ViewDeltaRelayed" || name == "ViewInterest";
    for (int trial = 0; trial < 200; ++trial) {
      net::Bytes mutated = bytes;
      size_t idx = 1 + rng.next_below(mutated.size() - 1);
      mutated[idx] = static_cast<uint8_t>(rng.next_u64());
      net::Bytes re = reencode(mutated);
      if (re.empty()) continue;
      if (variable) {
        EXPECT_EQ(reencode(re), re) << name;
      } else {
        EXPECT_EQ(re.size(), bytes.size()) << name;
      }
    }
  }
}

TEST(ProtocolCoverageTest, RandomMutationFuzzNeverCrashesAnyDecoder) {
  // Random bit-flip / truncation / extension mutations over every message
  // type, decoded as every message type: each decoder must reject or
  // decode cleanly — never crash or over-read (the ASan+UBSan CI job runs
  // this with the sanitizers armed).
  Rng rng(20260728);
  auto decode_all = [](const net::Bytes& b) {
    (void)peek_type(b);
    (void)SubQueryMsg::decode(b);
    (void)SubQueryReplyMsg::decode(b);
    (void)ViewDeltaMsg::decode(b);
    (void)ViewAckMsg::decode(b);
    (void)ViewPullMsg::decode(b);
    (void)ViewInterestMsg::decode(b);
    (void)FetchCompleteMsg::decode(b);
    (void)NodeStatsMsg::decode(b);
    (void)UpdateMsg::decode(b);
    (void)UpdateAckMsg::decode(b);
    (void)SyncReqMsg::decode(b);
    (void)SyncDataMsg::decode(b);
  };
  for (const auto& [name, bytes] : sample_messages()) {
    SCOPED_TRACE(name);
    for (int trial = 0; trial < 500; ++trial) {
      net::Bytes m = bytes;
      switch (rng.next_below(4)) {
        case 0:  // truncate anywhere, including to empty
          m.resize(rng.next_below(m.size() + 1));
          break;
        case 1: {  // extend with random trailing junk
          size_t extra = 1 + rng.next_below(16);
          for (size_t i = 0; i < extra; ++i) {
            m.push_back(static_cast<uint8_t>(rng.next_u64()));
          }
          break;
        }
        default:  // keep the original length, flips only
          break;
      }
      uint32_t flips = 1 + static_cast<uint32_t>(rng.next_below(8));
      for (uint32_t f = 0; f < flips && !m.empty(); ++f) {
        size_t bit = rng.next_below(m.size() * 8);
        m[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      decode_all(m);
      net::Bytes re = reencode(m);
      if (!re.empty()) {
        // A successful decode must re-encode to a well-formed message of
        // the type the mutated bytes announce.
        EXPECT_EQ(peek_type(re), peek_type(m));
      }
    }
  }
}

TEST(ProtocolCoverageTest, FrameDecoderReleasesBufferOnCorruptHeader) {
  net::FrameDecoder dec;
  // A valid frame, then a corrupt oversized length header.
  net::Bytes good = net::frame({1, 2, 3});
  dec.feed(good);
  uint32_t huge = net::kMaxFrameBytes + 1;
  uint8_t hdr[4];
  memcpy(hdr, &huge, 4);
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_FALSE(dec.feed(hdr, 4));  // rejected eagerly at feed time
  EXPECT_TRUE(dec.failed());
  EXPECT_EQ(dec.buffered_bytes(), 0u) << "poisoned stream must not buffer";
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.feed({9, 9, 9})) << "failed decoder stays failed";
}

TEST(ProtocolCoverageTest, FrameBeforeCorruptHeaderIsStillDelivered) {
  net::FrameDecoder dec;
  net::Bytes good = net::frame({42});
  uint32_t huge = net::kMaxFrameBytes + 1;
  net::Bytes stream = good;
  stream.insert(stream.end(), reinterpret_cast<uint8_t*>(&huge),
                reinterpret_cast<uint8_t*>(&huge) + 4);
  dec.feed(stream);
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, (net::Bytes{42}));
  EXPECT_TRUE(dec.failed());
  EXPECT_FALSE(dec.next().has_value());
}

}  // namespace
}  // namespace roar::cluster
