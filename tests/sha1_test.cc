#include "pps/sha1.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace roar::pps {
namespace {

std::string hex(const Sha1Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

std::vector<uint8_t> bytes(std::string_view s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// Runs `body` on the SHA-NI path (when this CPU has it) and on the
// portable path, then restores the default.
template <typename F>
void on_each_path(F body) {
  std::vector<bool> scalar_modes = {true};
  if (Sha1::accelerated()) scalar_modes.insert(scalar_modes.begin(), false);
  for (bool scalar : scalar_modes) {
    Sha1::set_force_scalar(scalar);
    SCOPED_TRACE(scalar ? "portable path" : "SHA-NI path");
    body();
  }
  Sha1::set_force_scalar(false);
}

// FIPS 180-1 / RFC 3174 known-answer tests.
TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(hex(Sha1::hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(hex(Sha1::hash("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(
      hex(Sha1::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  Sha1 s;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) s.update(chunk);
  EXPECT_EQ(hex(s.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

// Padding edges: 55 bytes is the longest message whose length fits in
// its last block; 56 needs a second block; 64 is a whole block, so
// padding is a block of its own. Digests from Python's hashlib.
TEST(Sha1Test, PaddingEdgeKnownAnswers) {
  on_each_path([] {
    EXPECT_EQ(hex(Sha1::hash(std::string(55, 'a'))),
              "c1c8bbdc22796e28c0e15163d20899b65621d65a");
    EXPECT_EQ(hex(Sha1::hash(std::string(56, 'a'))),
              "c2db330f6083854c99d4b5bfb6e8f29f201be699");
    EXPECT_EQ(hex(Sha1::hash(std::string(64, 'a'))),
              "0098ba824b5c16427bd7a1122a5a442a25ec644d");
  });
}

// Every length 0..200 covers the 55/56/63/64/119/120-byte padding edges;
// each message is hashed whole and split at every point across two
// update() calls, on both paths.
TEST(Sha1Test, HardwareAndScalarPathsAgree) {
  if (!Sha1::accelerated()) {
    GTEST_SKIP() << "no SHA-NI on this machine; scalar path is the only one";
  }
  std::vector<uint8_t> data(200);
  uint8_t x = 7;
  for (auto& b : data) b = x = static_cast<uint8_t>(x * 29 + 17);
  auto split_hash = [&](size_t len, size_t split) {
    Sha1 s;
    s.update(std::span<const uint8_t>(data.data(), split));
    s.update(std::span<const uint8_t>(data.data() + split, len - split));
    return s.finish();
  };
  for (size_t len = 0; len <= data.size(); ++len) {
    std::span<const uint8_t> msg(data.data(), len);
    Sha1Digest hw = Sha1::hash(msg);
    Sha1::set_force_scalar(true);
    ASSERT_FALSE(Sha1::accelerated());
    Sha1Digest scalar = Sha1::hash(msg);
    for (size_t split = 0; split <= len; ++split) {
      ASSERT_EQ(split_hash(len, split), scalar)
          << "portable len=" << len << " split=" << split;
    }
    Sha1::set_force_scalar(false);
    ASSERT_EQ(hw, scalar) << "SHA-NI and portable paths differ at len=" << len;
    for (size_t split = 0; split <= len; ++split) {
      ASSERT_EQ(split_hash(len, split), hw)
          << "SHA-NI len=" << len << " split=" << split;
    }
  }
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); split += 7) {
    Sha1 s;
    s.update(std::string_view(msg).substr(0, split));
    s.update(std::string_view(msg).substr(split));
    EXPECT_EQ(hex(s.finish()), hex(Sha1::hash(msg))) << "split=" << split;
  }
}

TEST(Sha1Test, ExactBlockBoundary) {
  std::string msg(64, 'x');
  Sha1 a;
  a.update(msg);
  std::string msg2(128, 'x');
  Sha1 b;
  b.update(msg2);
  EXPECT_NE(hex(a.finish()), hex(b.finish()));
}

// RFC 2202 HMAC-SHA1 test cases 1-7, through the one-off function and a
// kept HmacSha1, on every compression path this machine has.
TEST(HmacSha1Test, Rfc2202) {
  struct Case {
    std::vector<uint8_t> key;
    std::vector<uint8_t> msg;
    const char* expect;
  };
  std::vector<uint8_t> key4(25);
  for (size_t i = 0; i < key4.size(); ++i) key4[i] = static_cast<uint8_t>(i + 1);
  const std::vector<Case> cases = {
      {std::vector<uint8_t>(20, 0x0b), bytes("Hi There"),
       "b617318655057264e28bc0b6fb378c8ef146be00"},
      {bytes("Jefe"), bytes("what do ya want for nothing?"),
       "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
      {std::vector<uint8_t>(20, 0xaa), std::vector<uint8_t>(50, 0xdd),
       "125d7342b9ac11cd91a39af48aa17b4f63f175d3"},
      {key4, std::vector<uint8_t>(50, 0xcd),
       "4c9007f4026250c6bc8414f9bf50c86c2d7235da"},
      {std::vector<uint8_t>(20, 0x0c), bytes("Test With Truncation"),
       "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"},
      // Cases 6 and 7: an 80-byte key is longer than a block, so it is
      // hashed first; case 7's message also spans more than one block.
      {std::vector<uint8_t>(80, 0xaa),
       bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "aa4ae5e15272d00e95705637ce8a3b55ed402112"},
      {std::vector<uint8_t>(80, 0xaa),
       bytes("Test Using Larger Than Block-Size Key and Larger Than One "
             "Block-Size Data"),
       "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"},
  };
  on_each_path([&] {
    for (size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      std::span<const uint8_t> key(c.key), msg(c.msg);
      EXPECT_EQ(hex(hmac_sha1(key, msg)), c.expect) << "case " << i + 1;
      HmacSha1 keyed(key);
      EXPECT_EQ(hex(keyed.mac(msg)), c.expect) << "case " << i + 1;
      // A kept key gives the same answer on every use.
      EXPECT_EQ(hex(keyed.mac(msg)), c.expect) << "case " << i + 1;
    }
  });
}

TEST(PrfU64Test, DeterministicAndKeyed) {
  std::vector<uint8_t> k1(16, 1), k2(16, 2);
  EXPECT_EQ(prf_u64(std::span<const uint8_t>(k1), "msg"),
            prf_u64(std::span<const uint8_t>(k1), "msg"));
  EXPECT_NE(prf_u64(std::span<const uint8_t>(k1), "msg"),
            prf_u64(std::span<const uint8_t>(k2), "msg"));
  EXPECT_NE(prf_u64(std::span<const uint8_t>(k1), "msg"),
            prf_u64(std::span<const uint8_t>(k1), "msh"));
}

}  // namespace
}  // namespace roar::pps
