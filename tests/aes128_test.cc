#include "pps/aes128.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"

namespace roar::pps {
namespace {

AesKey key_from(std::initializer_list<uint8_t> bytes) {
  AesKey k{};
  std::copy(bytes.begin(), bytes.end(), k.begin());
  return k;
}

// FIPS 197 Appendix B known-answer test.
TEST(Aes128Test, Fips197Vector) {
  AesKey key = key_from({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                         0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c});
  AesBlock pt = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  AesBlock expect = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                     0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  Aes128 aes(key);
  EXPECT_EQ(aes.encrypt_block(pt), expect);
}

// NIST SP 800-38A ECB-AES128 vector.
TEST(Aes128Test, Sp80038aVector) {
  AesKey key = key_from({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                         0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c});
  AesBlock pt = {0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96,
                 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17, 0x2a};
  AesBlock expect = {0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60,
                     0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66, 0xef, 0x97};
  Aes128 aes(key);
  EXPECT_EQ(aes.encrypt_block(pt), expect);
}

TEST(Aes128Test, DecryptInvertsEncrypt) {
  Aes128 aes(key_from({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}));
  AesBlock pt{};
  for (int trial = 0; trial < 32; ++trial) {
    for (auto& b : pt) b = static_cast<uint8_t>(b * 31 + trial + 7);
    EXPECT_EQ(aes.decrypt_block(aes.encrypt_block(pt)), pt);
  }
}

TEST(Aes128Test, PermuteU64IsBijective) {
  Aes128 aes(key_from({9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}));
  std::set<uint64_t> seen;
  for (uint64_t v = 0; v < 2000; ++v) {
    uint64_t e = aes.permute_u64(v);
    EXPECT_TRUE(seen.insert(e).second) << "collision at " << v;
    EXPECT_EQ(aes.inverse_permute_u64(e), v);
  }
}

TEST(Aes128Test, PermuteBelowStaysInDomainAndBijective) {
  Aes128 aes(key_from({3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}));
  for (uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000ull, 32768ull}) {
    std::set<uint64_t> seen;
    for (uint64_t v = 0; v < bound; ++v) {
      uint64_t e = aes.permute_below(v, bound);
      ASSERT_LT(e, bound) << "bound=" << bound;
      ASSERT_TRUE(seen.insert(e).second)
          << "collision at v=" << v << " bound=" << bound;
    }
    EXPECT_EQ(seen.size(), bound);
  }
}

TEST(Aes128Test, CtrRoundTripsAndDiffersByNonce) {
  Aes128 aes(key_from({7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}));
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  auto orig = data;

  aes.ctr_xor(std::span<uint8_t>(data), 42);
  EXPECT_NE(data, orig);
  aes.ctr_xor(std::span<uint8_t>(data), 42);
  EXPECT_EQ(data, orig);

  auto a = orig;
  auto b = orig;
  aes.ctr_xor(std::span<uint8_t>(a), 1);
  aes.ctr_xor(std::span<uint8_t>(b), 2);
  EXPECT_NE(a, b);
}

TEST(Aes128Test, DifferentKeysDifferentCiphertexts) {
  Aes128 a(key_from({1}));
  Aes128 b(key_from({2}));
  AesBlock pt{};
  EXPECT_NE(a.encrypt_block(pt), b.encrypt_block(pt));
}

TEST(Aes128Test, EncryptBlocksMatchesSingleBlockAllSizes) {
  Aes128 aes(key_from({0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                       10, 11, 12}));
  // Exercise the 8-wide main loop, the tail, and both combined: sizes
  // around the interleave width.
  for (size_t n : {size_t{1}, size_t{3}, size_t{7}, size_t{8}, size_t{9},
                   size_t{16}, size_t{23}, size_t{64}}) {
    std::vector<AesBlock> in(n), out(n), expect(n);
    uint8_t x = 1;
    for (auto& blk : in) {
      for (auto& b : blk) b = x = static_cast<uint8_t>(x * 37 + 11);
    }
    for (size_t i = 0; i < n; ++i) expect[i] = aes.encrypt_block(in[i]);
    aes.encrypt_blocks(in.data(), out.data(), n);
    EXPECT_EQ(out, expect) << "n=" << n;
    // In-place form.
    std::vector<AesBlock> inplace = in;
    aes.encrypt_blocks(inplace.data(), inplace.data(), n);
    EXPECT_EQ(inplace, expect) << "in-place n=" << n;
  }
}

TEST(Aes128Test, HardwareAndScalarPathsAgree) {
  if (!Aes128::accelerated()) {
    GTEST_SKIP() << "no AES-NI on this machine; scalar path is the only one";
  }
  Aes128 aes(key_from({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                       0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}));
  std::vector<AesBlock> in(19);
  uint8_t x = 5;
  for (auto& blk : in) {
    for (auto& b : blk) b = x = static_cast<uint8_t>(x * 13 + 3);
  }
  std::vector<AesBlock> hw(in.size()), scalar(in.size());
  aes.encrypt_blocks(in.data(), hw.data(), in.size());
  Aes128::set_force_scalar(true);
  ASSERT_FALSE(Aes128::accelerated());
  aes.encrypt_blocks(in.data(), scalar.data(), in.size());
  Aes128::set_force_scalar(false);
  EXPECT_EQ(hw, scalar) << "AES-NI and portable paths must be byte-identical";
}

AesBlock random_block(Rng& rng) {
  AesBlock b;
  for (auto& byte : b) byte = static_cast<uint8_t>(rng.next_u64());
  return b;
}

// FIPS 197 Appendix A.1: the expanded key w[0..43] of 2b7e1516…, as round
// keys of four big-endian words each.
TEST(Aes128Test, KeyScheduleHardwareMatchesScalar) {
  if (!Aes128::accelerated()) {
    GTEST_SKIP() << "no AES-NI on this machine; scalar path is the only one";
  }
  constexpr uint32_t kW[44] = {
      0x2b7e1516, 0x28aed2a6, 0xabf71588, 0x09cf4f3c, 0xa0fafe17, 0x88542cb1,
      0x23a33939, 0x2a6c7605, 0xf2c295f2, 0x7a96b943, 0x5935807a, 0x7359f67f,
      0x3d80477d, 0x4716fe3e, 0x1e237e44, 0x6d7a883b, 0xef44a541, 0xa8525b7f,
      0xb671253b, 0xdb0bad00, 0xd4d1c6f8, 0x7c839d87, 0xcaf2b8bc, 0x11f915bc,
      0x6d88a37a, 0x110b3efd, 0xdbf98641, 0xca0093fd, 0x4e54f70e, 0x5f5fc9f3,
      0x84a64fb2, 0x4ea6dc4f, 0xead27321, 0xb58dbad2, 0x312bf560, 0x7f8d292f,
      0xac7766f3, 0x19fadc21, 0x28d12941, 0x575c006e, 0xd014f9a8, 0xc9ee2589,
      0xe13f0cc8, 0xb6630ca6};
  Aes128::RoundKeys fips;
  for (int w = 0; w < 44; ++w) {
    for (int b = 0; b < 4; ++b) {
      fips[w / 4][(w % 4) * 4 + b] = static_cast<uint8_t>(kW[w] >> (24 - 8 * b));
    }
  }
  const AesKey fips_key = key_from({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2,
                                    0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                                    0x4f, 0x3c});
  Rng rng(197);
  std::vector<AesKey> keys(1000);
  for (auto& k : keys) k = random_block(rng);
  std::vector<Aes128::RoundKeys> hw;
  for (bool scalar : {false, true}) {
    Aes128::set_force_scalar(scalar);
    EXPECT_EQ(Aes128(fips_key).round_keys(), fips)
        << (scalar ? "portable" : "AES-NI") << " key expansion";
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!scalar) {
        hw.push_back(Aes128(keys[i]).round_keys());
      } else {
        ASSERT_EQ(Aes128(keys[i]).round_keys(), hw[i]) << "key " << i;
      }
    }
  }
  Aes128::set_force_scalar(false);
}

// n from 0 to 40 covers empty input, a lone tail, whole 8-block batches
// and every tail length after them.
TEST(Aes128Test, EncryptKeyedMatchesPerKeyCipher) {
  if (!Aes128::accelerated()) {
    GTEST_SKIP() << "no AES-NI on this machine; scalar path is the only one";
  }
  Rng rng(40);
  for (size_t n = 0; n <= 40; ++n) {
    std::vector<AesKey> keys(n);
    std::vector<AesBlock> in(n), expect(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = random_block(rng);
      in[i] = random_block(rng);
    }
    Aes128::set_force_scalar(true);
    for (size_t i = 0; i < n; ++i) {
      expect[i] = Aes128(keys[i]).encrypt_block(in[i]);
    }
    for (bool scalar : {false, true}) {
      Aes128::set_force_scalar(scalar);
      std::vector<AesBlock> out(n);
      Aes128::encrypt_keyed(keys.data(), in.data(), out.data(), n);
      EXPECT_EQ(out, expect) << (scalar ? "portable" : "AES-NI") << " n=" << n;
      std::vector<AesBlock> inplace = in;
      Aes128::encrypt_keyed(keys.data(), inplace.data(), inplace.data(), n);
      EXPECT_EQ(inplace, expect)
          << (scalar ? "portable" : "AES-NI") << " in-place n=" << n;
    }
  }
  Aes128::set_force_scalar(false);
}

}  // namespace
}  // namespace roar::pps
