#include "pps/aes128.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#define ROAR_AES_X86 1
#include <immintrin.h>
#endif

namespace roar::pps {
namespace {

std::atomic<bool> g_force_scalar{false};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1B, 0x36};

#ifdef ROAR_AES_X86
// Hardware path. Compiled with a per-function target attribute so the
// rest of the build needs no -maes; only reachable after the runtime
// CPUID check in Aes128::accelerated().

__attribute__((target("aes,ssse3"))) inline __m128i load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

__attribute__((target("aes,ssse3"))) inline void store(uint8_t* p,
                                                      __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// One key-schedule step: round key r from round key r - 1. The
// SubWord(RotWord(w3)) ^ Rcon word comes from aesenclast on w3 rotated
// and broadcast to all four columns (ShiftRows is then the identity), not
// from aeskeygenassist: on a 4-core x86 VM that instruction took ~20
// cycles, and encrypt_keyed ran 4x slower per block with it.
template <uint8_t Rcon>
__attribute__((target("aes,ssse3"))) inline __m128i next_round_key(
    __m128i k) {
  const __m128i rot_w3 = _mm_set1_epi32(0x0c0f0e0d);
  __m128i t = _mm_aesenclast_si128(_mm_shuffle_epi8(k, rot_w3),
                                   _mm_set1_epi32(Rcon));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  return _mm_xor_si128(k, t);
}

template <size_t... R>
__attribute__((target("aes,ssse3"))) void expand_key_ni(
    const AesKey& key, Aes128::RoundKeys& rks, std::index_sequence<R...>) {
  __m128i k = load(key.data());
  store(rks[0].data(), k);
  ((k = next_round_key<kRcon[R + 1]>(k), store(rks[R + 1].data(), k)), ...);
}

// Round R + 1 of 8 blocks, each under its own schedule: step every key,
// then run the round. The 8 independent lanes hide the latency of the
// key step and of aesenc.
template <size_t R>
__attribute__((target("aes,ssse3"))) inline void keyed_round8(__m128i* k,
                                                             __m128i* b) {
  for (int j = 0; j < 8; ++j) {
    k[j] = next_round_key<kRcon[R + 1]>(k[j]);
    b[j] = R + 1 == 10 ? _mm_aesenclast_si128(b[j], k[j])
                       : _mm_aesenc_si128(b[j], k[j]);
  }
}

template <size_t... R>
__attribute__((target("aes,ssse3"))) void encrypt8_keyed_ni(
    const AesKey* keys, const AesBlock* in, AesBlock* out,
    std::index_sequence<R...>) {
  __m128i k[8], b[8];
  for (int j = 0; j < 8; ++j) {
    k[j] = load(keys[j].data());
    b[j] = _mm_xor_si128(load(in[j].data()), k[j]);
  }
  (keyed_round8<R>(k, b), ...);
  for (int j = 0; j < 8; ++j) store(out[j].data(), b[j]);
}

void encrypt_keyed_ni(const AesKey* keys, const AesBlock* in, AesBlock* out,
                      size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    encrypt8_keyed_ni(keys + i, in + i, out + i, std::make_index_sequence<10>{});
  }
  if (i == n) return;
  // Tail: pad to a full batch; the spare lanes cost no extra latency.
  AesKey k[8] = {};
  AesBlock b[8] = {};
  std::copy(keys + i, keys + n, k);
  std::copy(in + i, in + n, b);
  encrypt8_keyed_ni(k, b, b, std::make_index_sequence<10>{});
  std::copy(b, b + (n - i), out + i);
}

__attribute__((target("aes,sse2"))) void encrypt_blocks_ni(
    const std::array<std::array<uint8_t, 16>, 11>& rks, const AesBlock* in,
    AesBlock* out, size_t n) {
  __m128i rk[11];
  for (int r = 0; r < 11; ++r) {
    rk[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rks[r].data()));
  }
  size_t i = 0;
  // 8-wide interleave: aesenc has multi-cycle latency but single-cycle
  // throughput, so running 8 independent blocks through each round keeps
  // the unit saturated instead of latency-bound.
  for (; i + 8 <= n; i += 8) {
    __m128i b[8];
    for (int j = 0; j < 8; ++j) {
      b[j] = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(in[i + j].data())),
          rk[0]);
    }
    for (int r = 1; r < 10; ++r) {
      for (int j = 0; j < 8; ++j) b[j] = _mm_aesenc_si128(b[j], rk[r]);
    }
    for (int j = 0; j < 8; ++j) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out[i + j].data()),
                       _mm_aesenclast_si128(b[j], rk[10]));
    }
  }
  for (; i < n; ++i) {
    __m128i b = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in[i].data())),
        rk[0]);
    for (int r = 1; r < 10; ++r) b = _mm_aesenc_si128(b, rk[r]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out[i].data()),
                     _mm_aesenclast_si128(b, rk[10]));
  }
}

bool cpu_has_aes() {
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("ssse3");
}
#else
bool cpu_has_aes() { return false; }
#endif

// S-box and inverse, generated from the AES definition (multiplicative
// inverse in GF(2^8) followed by the affine transform).
struct SBoxes {
  uint8_t fwd[256];
  uint8_t inv[256];
};

uint8_t gf_mul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    bool hi = a & 0x80;
    a = static_cast<uint8_t>(a << 1);
    if (hi) a ^= 0x1B;
    b >>= 1;
  }
  return p;
}

SBoxes build_sboxes() {
  SBoxes s{};
  // Multiplicative inverses via brute force (one-time init).
  uint8_t inv_gf[256] = {0};
  for (int a = 1; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      if (gf_mul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)) == 1) {
        inv_gf[a] = static_cast<uint8_t>(b);
        break;
      }
    }
  }
  for (int i = 0; i < 256; ++i) {
    uint8_t x = inv_gf[i];
    uint8_t y = static_cast<uint8_t>(
        x ^ static_cast<uint8_t>((x << 1) | (x >> 7)) ^
        static_cast<uint8_t>((x << 2) | (x >> 6)) ^
        static_cast<uint8_t>((x << 3) | (x >> 5)) ^
        static_cast<uint8_t>((x << 4) | (x >> 4)) ^ 0x63);
    s.fwd[i] = y;
    s.inv[y] = static_cast<uint8_t>(i);
  }
  return s;
}

const SBoxes& sboxes() {
  static const SBoxes s = build_sboxes();
  return s;
}

}  // namespace

Aes128::Aes128(const AesKey& key) {
#ifdef ROAR_AES_X86
  if (accelerated()) {
    expand_key_ni(key, round_keys_, std::make_index_sequence<10>{});
    return;
  }
#endif
  const SBoxes& sb = sboxes();
  std::memcpy(round_keys_[0].data(), key.data(), 16);
  for (int r = 1; r <= 10; ++r) {
    const auto& prev = round_keys_[r - 1];
    auto& rk = round_keys_[r];
    // RotWord + SubWord + Rcon on the last word of prev.
    uint8_t t[4] = {sb.fwd[prev[13]], sb.fwd[prev[14]], sb.fwd[prev[15]],
                    sb.fwd[prev[12]]};
    t[0] ^= kRcon[r];
    for (int i = 0; i < 4; ++i) rk[i] = static_cast<uint8_t>(prev[i] ^ t[i]);
    for (int i = 4; i < 16; ++i) {
      rk[i] = static_cast<uint8_t>(prev[i] ^ rk[i - 4]);
    }
  }
}

bool Aes128::accelerated() {
  static const bool has_hw = cpu_has_aes();
  return has_hw && !g_force_scalar.load(std::memory_order_relaxed);
}

void Aes128::set_force_scalar(bool v) {
  g_force_scalar.store(v, std::memory_order_relaxed);
}

void Aes128::encrypt_blocks(const AesBlock* in, AesBlock* out,
                            size_t n) const {
#ifdef ROAR_AES_X86
  if (accelerated()) {
    encrypt_blocks_ni(round_keys_, in, out, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) out[i] = encrypt_block_scalar(in[i]);
}

void Aes128::encrypt_keyed(const AesKey* keys, const AesBlock* in,
                           AesBlock* out, size_t n) {
#ifdef ROAR_AES_X86
  if (accelerated()) {
    encrypt_keyed_ni(keys, in, out, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    out[i] = Aes128(keys[i]).encrypt_block_scalar(in[i]);
  }
}

AesBlock Aes128::encrypt_block(const AesBlock& in) const {
#ifdef ROAR_AES_X86
  if (accelerated()) {
    AesBlock out;
    encrypt_blocks_ni(round_keys_, &in, &out, 1);
    return out;
  }
#endif
  return encrypt_block_scalar(in);
}

AesBlock Aes128::encrypt_block_scalar(const AesBlock& in) const {
  const SBoxes& sb = sboxes();
  AesBlock s = in;
  auto add_rk = [&](int r) {
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[r][i];
  };
  auto sub_bytes = [&] {
    for (auto& b : s) b = sb.fwd[b];
  };
  auto shift_rows = [&] {
    AesBlock t = s;
    // state is column-major: s[c*4 + r]
    for (int r = 1; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        s[c * 4 + r] = t[((c + r) % 4) * 4 + r];
      }
    }
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      uint8_t a0 = s[c * 4], a1 = s[c * 4 + 1], a2 = s[c * 4 + 2],
              a3 = s[c * 4 + 3];
      s[c * 4] = static_cast<uint8_t>(gf_mul(a0, 2) ^ gf_mul(a1, 3) ^ a2 ^ a3);
      s[c * 4 + 1] =
          static_cast<uint8_t>(a0 ^ gf_mul(a1, 2) ^ gf_mul(a2, 3) ^ a3);
      s[c * 4 + 2] =
          static_cast<uint8_t>(a0 ^ a1 ^ gf_mul(a2, 2) ^ gf_mul(a3, 3));
      s[c * 4 + 3] =
          static_cast<uint8_t>(gf_mul(a0, 3) ^ a1 ^ a2 ^ gf_mul(a3, 2));
    }
  };

  add_rk(0);
  for (int r = 1; r < 10; ++r) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_rk(r);
  }
  sub_bytes();
  shift_rows();
  add_rk(10);
  return s;
}

AesBlock Aes128::decrypt_block(const AesBlock& in) const {
  const SBoxes& sb = sboxes();
  AesBlock s = in;
  auto add_rk = [&](int r) {
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[r][i];
  };
  auto inv_sub_bytes = [&] {
    for (auto& b : s) b = sb.inv[b];
  };
  auto inv_shift_rows = [&] {
    AesBlock t = s;
    for (int r = 1; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        s[((c + r) % 4) * 4 + r] = t[c * 4 + r];
      }
    }
  };
  auto inv_mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      uint8_t a0 = s[c * 4], a1 = s[c * 4 + 1], a2 = s[c * 4 + 2],
              a3 = s[c * 4 + 3];
      s[c * 4] = static_cast<uint8_t>(gf_mul(a0, 14) ^ gf_mul(a1, 11) ^
                                      gf_mul(a2, 13) ^ gf_mul(a3, 9));
      s[c * 4 + 1] = static_cast<uint8_t>(gf_mul(a0, 9) ^ gf_mul(a1, 14) ^
                                          gf_mul(a2, 11) ^ gf_mul(a3, 13));
      s[c * 4 + 2] = static_cast<uint8_t>(gf_mul(a0, 13) ^ gf_mul(a1, 9) ^
                                          gf_mul(a2, 14) ^ gf_mul(a3, 11));
      s[c * 4 + 3] = static_cast<uint8_t>(gf_mul(a0, 11) ^ gf_mul(a1, 13) ^
                                          gf_mul(a2, 9) ^ gf_mul(a3, 14));
    }
  };

  add_rk(10);
  for (int r = 9; r >= 1; --r) {
    inv_shift_rows();
    inv_sub_bytes();
    add_rk(r);
    inv_mix_columns();
  }
  inv_shift_rows();
  inv_sub_bytes();
  add_rk(0);
  return s;
}

namespace {
// 4-round Feistel round function over 32-bit halves, AES as the PRF. A
// balanced Feistel network with a strong round function is a pseudorandom
// permutation on the full 64-bit domain (Luby-Rackoff), and is trivially
// invertible by running the rounds backwards.
uint64_t feistel32_round(const Aes128& aes, uint32_t x, int r) {
  AesBlock b{};
  b[15] = static_cast<uint8_t>(0xF0 | r);
  for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(x >> (i * 8));
  AesBlock e = aes.encrypt_block(b);
  uint32_t out = 0;
  for (int i = 3; i >= 0; --i) out = (out << 8) | e[i];
  return out;
}
}  // namespace

uint64_t Aes128::permute_u64(uint64_t v) const {
  uint32_t left = static_cast<uint32_t>(v >> 32);
  uint32_t right = static_cast<uint32_t>(v);
  for (int r = 0; r < 4; ++r) {
    uint32_t nl = right;
    uint32_t nr =
        left ^ static_cast<uint32_t>(feistel32_round(*this, right, r));
    left = nl;
    right = nr;
  }
  return (static_cast<uint64_t>(left) << 32) | right;
}

uint64_t Aes128::inverse_permute_u64(uint64_t v) const {
  uint32_t left = static_cast<uint32_t>(v >> 32);
  uint32_t right = static_cast<uint32_t>(v);
  for (int r = 3; r >= 0; --r) {
    uint32_t pr = left;
    uint32_t pl =
        right ^ static_cast<uint32_t>(feistel32_round(*this, left, r));
    left = pl;
    right = pr;
  }
  return (static_cast<uint64_t>(left) << 32) | right;
}

uint64_t Aes128::permute_below(uint64_t v, uint64_t bound) const {
  // Cycle-walk a power-of-two domain >= bound using a 4-round Feistel
  // network over 2k bits (k bits per half), with AES as the round function.
  // This is a true permutation on [0, 2^(2k)) and, via cycle walking, on
  // [0, bound).
  int bits = 1;
  while ((1ull << bits) < bound && bits < 63) ++bits;
  if (bits % 2) ++bits;  // even split
  int half = bits / 2;
  uint64_t half_mask = (half >= 64) ? ~0ull : ((1ull << half) - 1);

  auto round_f = [&](uint64_t x, int r) {
    AesBlock b{};
    b[15] = static_cast<uint8_t>(r);
    for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(x >> (i * 8));
    AesBlock e = encrypt_block(b);
    uint64_t out = 0;
    for (int i = 7; i >= 0; --i) out = (out << 8) | e[i];
    return out & half_mask;
  };

  uint64_t x = v;
  do {
    uint64_t left = x >> half;
    uint64_t right = x & half_mask;
    for (int r = 0; r < 4; ++r) {
      uint64_t nl = right;
      uint64_t nr = left ^ round_f(right, r);
      left = nl;
      right = nr;
    }
    x = (left << half) | right;
  } while (x >= bound);
  return x;
}

void Aes128::ctr_xor(std::span<uint8_t> data, uint64_t nonce) const {
  AesBlock ctr{};
  for (int i = 0; i < 8; ++i) ctr[i] = static_cast<uint8_t>(nonce >> (i * 8));
  uint64_t counter = 0;
  size_t off = 0;
  while (off < data.size()) {
    for (int i = 0; i < 8; ++i) {
      ctr[8 + i] = static_cast<uint8_t>(counter >> (i * 8));
    }
    AesBlock ks = encrypt_block(ctr);
    size_t n = std::min<size_t>(16, data.size() - off);
    for (size_t i = 0; i < n; ++i) data[off + i] ^= ks[i];
    off += n;
    ++counter;
  }
}

}  // namespace roar::pps
