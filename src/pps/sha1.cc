#include "pps/sha1.h"

#include <algorithm>
#include <atomic>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#define ROAR_SHA_X86 1
#include <immintrin.h>
#endif

namespace roar::pps {
namespace {

std::atomic<bool> g_force_scalar{false};

constexpr uint32_t rotl32(uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

void compress_scalar(uint32_t h[5], const uint8_t* block) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  for (int i = 0; i < 80; ++i) {
    uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    uint32_t tmp = rotl32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = tmp;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

#ifdef ROAR_SHA_X86
// Hardware path. Compiled with a per-function target attribute so the
// rest of the build needs no -msha; only reachable after the runtime
// CPUID check in Sha1::accelerated().

// Rounds 4g .. 4g+3, with round function g / 5. `w` is a ring of the
// last four message-schedule quads; for g >= 4 the quad for this group
// replaces W[g-4] in place. `e` carries the A of four rounds back, from
// which sha1nexte derives this group's E. g is a template argument so
// every index and the sha1rnds4 immediate are compile-time constants.
template <int g>
__attribute__((target("sha,sse4.1"), always_inline)) inline void rounds4(
    __m128i& abcd, __m128i& e, __m128i* w) {
  __m128i& wg = w[g % 4];
  if constexpr (g >= 4) {
    wg = _mm_sha1msg2_epu32(
        _mm_xor_si128(_mm_sha1msg1_epu32(wg, w[(g + 1) % 4]), w[(g + 2) % 4]),
        w[(g + 3) % 4]);
  }
  __m128i ew = g == 0 ? _mm_add_epi32(e, wg) : _mm_sha1nexte_epu32(e, wg);
  e = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, ew, g / 5);
}

template <int... g>
__attribute__((target("sha,sse4.1"), always_inline)) inline void rounds80(
    __m128i& abcd, __m128i& e, __m128i* w, std::integer_sequence<int, g...>) {
  (rounds4<g>(abcd, e, w), ...);
}

__attribute__((target("sha,sse4.1"))) void compress_ni(uint32_t h[5],
                                                       const uint8_t* block) {
  // SHA-1 words are big-endian; this reverses the bytes of each quad and
  // the word order so W[t] lands in the lane sha1rnds4 expects.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0x1B);
  __m128i e = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
  const __m128i abcd_in = abcd;
  const __m128i e_in = e;

  __m128i w[4];
  for (int i = 0; i < 4; ++i) {
    w[i] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
        kByteSwap);
  }
  rounds80(abcd, e, w, std::make_integer_sequence<int, 20>());

  e = _mm_sha1nexte_epu32(e, e_in);
  abcd = _mm_add_epi32(abcd, abcd_in);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h),
                   _mm_shuffle_epi32(abcd, 0x1B));
  h[4] = static_cast<uint32_t>(_mm_extract_epi32(e, 3));
}

bool cpu_has_sha() {
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}
#else
bool cpu_has_sha() { return false; }
#endif

}  // namespace

void Sha1::reset() {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
  total_len_ = 0;
  buf_len_ = 0;
}

bool Sha1::accelerated() {
  static const bool has_hw = cpu_has_sha();
  return has_hw && !g_force_scalar.load(std::memory_order_relaxed);
}

void Sha1::set_force_scalar(bool v) {
  g_force_scalar.store(v, std::memory_order_relaxed);
}

void Sha1::process_block(const uint8_t* block) {
#ifdef ROAR_SHA_X86
  if (accelerated()) {
    compress_ni(h_, block);
    return;
  }
#endif
  compress_scalar(h_, block);
}

void Sha1::update(std::span<const uint8_t> data) {
  total_len_ += data.size();
  size_t i = 0;
  if (buf_len_ > 0) {
    size_t take = std::min(data.size(), sizeof(buf_) - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    i = take;
    if (buf_len_ == sizeof(buf_)) {
      process_block(buf_);
      buf_len_ = 0;
    }
  }
  while (i + 64 <= data.size()) {
    process_block(data.data() + i);
    i += 64;
  }
  if (i < data.size()) {
    std::memcpy(buf_, data.data() + i, data.size() - i);
    buf_len_ = data.size() - i;
  }
}

Sha1Digest Sha1::finish() {
  // Padding: 0x80, zeros up to byte 56 of a block, then the 64-bit
  // big-endian bit length. buf_len_ < 64 here, so the marker always fits;
  // past byte 55 the length needs a second block.
  uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, sizeof(buf_) - buf_len_);
    process_block(buf_);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) {
    buf_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - i * 8));
  }
  process_block(buf_);
  buf_len_ = 0;

  Sha1Digest out;
  for (int i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<uint8_t>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

Sha1Digest Sha1::hash(std::span<const uint8_t> data) {
  Sha1 s;
  s.update(data);
  return s.finish();
}

Sha1Digest Sha1::hash(std::string_view sv) {
  Sha1 s;
  s.update(sv);
  return s.finish();
}

HmacSha1::HmacSha1(std::span<const uint8_t> key) {
  uint8_t k_block[64] = {0};
  if (key.size() > 64) {
    Sha1Digest kd = Sha1::hash(key);
    std::memcpy(k_block, kd.data(), kd.size());
  } else {
    std::memcpy(k_block, key.data(), key.size());
  }
  uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<uint8_t>(k_block[i] ^ 0x36);
    opad[i] = static_cast<uint8_t>(k_block[i] ^ 0x5C);
  }
  inner_.update(std::span<const uint8_t>(ipad, 64));
  outer_.update(std::span<const uint8_t>(opad, 64));
}

Sha1Digest HmacSha1::mac(std::span<const uint8_t> msg) const {
  Sha1 inner = inner_;
  inner.update(msg);
  Sha1Digest inner_d = inner.finish();
  Sha1 outer = outer_;
  outer.update(std::span<const uint8_t>(inner_d.data(), inner_d.size()));
  return outer.finish();
}

Sha1Digest HmacSha1::mac(std::string_view msg) const {
  return mac(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(msg.data()), msg.size()));
}

Sha1Digest hmac_sha1(std::span<const uint8_t> key, std::span<const uint8_t> msg) {
  return HmacSha1(key).mac(msg);
}

Sha1Digest hmac_sha1(std::span<const uint8_t> key, std::string_view msg) {
  return HmacSha1(key).mac(msg);
}

uint64_t prf_u64(std::span<const uint8_t> key, std::string_view msg) {
  Sha1Digest d = hmac_sha1(key, msg);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | d[i];
  return v;
}

}  // namespace roar::pps
