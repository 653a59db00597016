// SHA-1 (FIPS 180-1), implemented from scratch.
//
// The thesis' PPS implementation (§5.6) uses SHA-1 as its pseudorandom
// function throughout; we match that choice. Server-side matching does not
// touch it (the Bloom codeword PRF is AES, see bloom_keyword_scheme.h):
// SHA-1 bounds only the client side, i.e. trapdoor building and metadata
// encryption, where every distinct keyword, once per corpus, costs one HMAC
// per Bloom hash function.
// On x86 with the SHA extensions the compression function runs on SHA-NI,
// picked at runtime by CPUID; the portable implementation is the fallback
// and the test reference. SHA-1 is cryptographically broken for collision
// resistance; it remains adequate here as a PRF building block for a
// faithful reproduction, and the Scheme interfaces are hash-agnostic.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace roar::pps {

using Sha1Digest = std::array<uint8_t, 20>;

class Sha1 {
 public:
  Sha1() { reset(); }

  void reset();
  void update(std::span<const uint8_t> data);
  void update(std::string_view s) {
    update(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(s.data()), s.size()));
  }
  // Finalizes and returns the digest. The object must be reset() before
  // reuse.
  Sha1Digest finish();

  static Sha1Digest hash(std::span<const uint8_t> data);
  static Sha1Digest hash(std::string_view s);

  // True when the SHA-NI compression path is compiled in, supported by
  // this CPU, and not disabled by set_force_scalar.
  static bool accelerated();
  // Test hook (process-wide): force the portable scalar compression so
  // equivalence tests can diff the two paths on the same machine.
  static void set_force_scalar(bool v);

 private:
  void process_block(const uint8_t* block);

  uint32_t h_[5];
  uint64_t total_len_ = 0;
  uint8_t buf_[64] = {};
  size_t buf_len_ = 0;
};

// HMAC-SHA1 (RFC 2104) under one fixed key: the keyed PRF used by every
// PPS scheme. The ipad and opad blocks are compressed once, here, so each
// mac() of a message under 56 bytes costs two compressions, where a
// one-off HMAC costs four. Immutable after construction, so one instance
// may be shared by concurrent callers.
class HmacSha1 {
 public:
  explicit HmacSha1(std::span<const uint8_t> key);

  Sha1Digest mac(std::span<const uint8_t> msg) const;
  Sha1Digest mac(std::string_view msg) const;

 private:
  Sha1 inner_;  // state after absorbing key ^ ipad
  Sha1 outer_;  // state after absorbing key ^ opad
};

// One-off HMAC-SHA1: HmacSha1(key).mac(msg). Prefer a kept HmacSha1 when
// one key signs many messages.
Sha1Digest hmac_sha1(std::span<const uint8_t> key, std::span<const uint8_t> msg);
Sha1Digest hmac_sha1(std::span<const uint8_t> key, std::string_view msg);

// First 8 bytes of HMAC-SHA1 as a little-endian integer; convenient for
// Bloom-filter positions and dictionary indexes.
uint64_t prf_u64(std::span<const uint8_t> key, std::string_view msg);

}  // namespace roar::pps
