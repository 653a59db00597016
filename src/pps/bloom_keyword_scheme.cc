#include "pps/bloom_keyword_scheme.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>

namespace roar::pps {

double BloomParams::false_positive_rate() const {
  // (1 - e^{-kn/m})^k with n = expected_words, m = filter_bits, k = r.
  double m = filter_bits();
  double n = expected_words;
  double k = hash_count;
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

BloomKeywordScheme::BloomKeywordScheme(const SecretKey& key,
                                       BloomParams params)
    : params_(params) {
  keys_.reserve(params_.hash_count);
  for (uint32_t i = 0; i < params_.hash_count; ++i) {
    keys_.emplace_back(key.derive("bloom:" + std::to_string(i)));
  }
}

BloomKeywordScheme::Trapdoor BloomKeywordScheme::encrypt_query(
    std::string_view word) const {
  Trapdoor t;
  t.parts.reserve(keys_.size());
  for (const auto& k : keys_) {
    t.parts.push_back(k.mac(word));
  }
  return t;
}

namespace {

AesKey key_from_part(const Sha1Digest& x) {
  AesKey k;
  std::memcpy(k.data(), x.data(), k.size());
  return k;
}

// The per-document PRF input: document nonce, probe index, zero padding.
AesBlock codeword_block(const Nonce& rnd, uint32_t i) {
  AesBlock blk{};
  std::memcpy(blk.data(), rnd.data(), rnd.size());
  for (int b = 0; b < 4; ++b) {
    blk[8 + b] = static_cast<uint8_t>(i >> (b * 8));
  }
  return blk;
}

uint32_t block_to_u32(const AesBlock& y) {
  uint32_t v = 0;
  for (int b = 0; b < 4; ++b) v = (v << 8) | y[b];
  return v;
}

// Takes `count` accepted rng.next_below(bound) values through the same
// raw draws next_below makes, and with kSet ORs each into `bits` (a
// filter of `bound` bits). Every draw, rejected or not, sets its bit in a
// buffer spanning the whole masked range, so the loop has no
// data-dependent branch or address; the rejected draws all land at or
// past `bound` and are cut off when the buffer is merged.
template <bool kSet>
void padding_draws(Rng& rng, uint64_t count, uint32_t bound,
                   std::vector<uint64_t>* bits) {
  const uint64_t mask = std::bit_ceil(uint64_t{bound}) - 1;
  std::vector<uint64_t> buf(kSet ? mask / 64 + 1 : 0);
  for (uint64_t accepted = 0; accepted < count;) {
    uint64_t v = rng.next_u64() & mask;
    if constexpr (kSet) buf[v / 64] |= 1ull << (v % 64);
    accepted += v < bound;
  }
  if constexpr (kSet) {
    if (bound % 64 != 0) buf[bound / 64] &= (1ull << (bound % 64)) - 1;
    for (size_t w = 0; w < bits->size(); ++w) (*bits)[w] |= buf[w];
  }
}

}  // namespace

BloomKeywordScheme::PreparedTrapdoor BloomKeywordScheme::prepare(
    const Trapdoor& q) const {
  PreparedTrapdoor p;
  p.ciphers.reserve(q.parts.size());
  for (const auto& part : q.parts) {
    p.ciphers.emplace_back(key_from_part(part));
  }
  return p;
}

uint32_t BloomKeywordScheme::codeword_position(const Nonce& rnd,
                                               const Aes128& cipher,
                                               uint32_t i) const {
  // y_i = AES_{x_i}(rnd ‖ i); the bit position is y_i reduced mod the
  // filter size. The probe index is mixed into the block so identical
  // trapdoor parts (which cannot happen for distinct sub-keys, but cheap
  // insurance) separate.
  AesBlock y = cipher.encrypt_block(codeword_block(rnd, i));
  return block_to_u32(y) % params_.filter_bits();
}

void BloomKeywordScheme::codeword_keys(std::string_view word,
                                       AesKey* out) const {
  for (const auto& k : keys_) *out++ = key_from_part(k.mac(word));
}

BloomKeywordScheme::Draws BloomKeywordScheme::draw(size_t word_count,
                                                   Rng& rng) const {
  Draws d;
  d.rnd = make_nonce(rng);
  d.padding = rng;
  if (word_count < params_.expected_words) {
    d.padding_bits =
        (params_.expected_words - word_count) * params_.hash_count;
  }
  padding_draws<false>(rng, d.padding_bits, params_.filter_bits(), nullptr);
  return d;
}

BloomKeywordScheme::EncryptedMetadata BloomKeywordScheme::fill(
    const Draws& d, std::span<const AesKey> keys) const {
  const uint32_t r = params_.hash_count;
  const uint32_t filter_bits = params_.filter_bits();
  EncryptedMetadata m;
  m.rnd = d.rnd;
  m.bits.assign((filter_bits + 63) / 64, 0);
  m.word_count = static_cast<uint32_t>(keys.size() / r);
  Rng padding = d.padding;
  padding_draws<true>(padding, d.padding_bits, filter_bits, &m.bits);
  std::vector<AesBlock> y(keys.size());
  for (size_t k = 0; k < y.size(); ++k) {
    y[k] = codeword_block(m.rnd, static_cast<uint32_t>(k % r));
  }
  Aes128::encrypt_keyed(keys.data(), y.data(), y.data(), y.size());
  for (const auto& blk : y) {
    uint32_t pos = block_to_u32(blk) % filter_bits;
    m.bits[pos / 64] |= (1ull << (pos % 64));
  }
  return m;
}

BloomKeywordScheme::EncryptedMetadata BloomKeywordScheme::encrypt_metadata(
    std::span<const std::string> words, Rng& rng) const {
  Draws d = draw(words.size(), rng);
  std::vector<AesKey> keys(words.size() * params_.hash_count);
  for (size_t w = 0; w < words.size(); ++w) {
    codeword_keys(words[w], &keys[w * params_.hash_count]);
  }
  return fill(d, keys);
}

bool BloomKeywordScheme::match(const EncryptedMetadata& m, const Trapdoor& q,
                               MatchCost* cost) const {
  return match(m, prepare(q), cost);
}

bool BloomKeywordScheme::match(const EncryptedMetadata& m,
                               const PreparedTrapdoor& q,
                               MatchCost* cost) const {
  for (uint32_t i = 0; i < q.ciphers.size(); ++i) {
    if (cost != nullptr) cost->bump();
    uint32_t pos = codeword_position(m.rnd, q.ciphers[i], i);
    if ((m.bits[pos / 64] & (1ull << (pos % 64))) == 0) return false;
  }
  return true;
}

void BloomKeywordScheme::match_batch(
    std::span<const EncryptedMetadata* const> items, const PreparedTrapdoor& q,
    uint8_t* results, MatchCost* cost) const {
  size_t n = items.size();
  std::fill(results, results + n, uint8_t{1});
  if (n == 0) return;
  // Survivor compaction: probe i is computed only for items every earlier
  // probe passed — the exact work the sequential early exit does, but
  // each probe round is one multi-block AES call over the survivors.
  std::vector<uint32_t> alive(n);
  for (uint32_t j = 0; j < n; ++j) alive[j] = j;
  std::vector<AesBlock> blocks(n);
  for (uint32_t i = 0; i < q.ciphers.size() && !alive.empty(); ++i) {
    for (size_t k = 0; k < alive.size(); ++k) {
      blocks[k] = codeword_block(items[alive[k]]->rnd, i);
    }
    if (cost != nullptr) cost->bump(alive.size());
    q.ciphers[i].encrypt_blocks(blocks.data(), blocks.data(), alive.size());
    size_t kept = 0;
    for (size_t k = 0; k < alive.size(); ++k) {
      uint32_t pos = block_to_u32(blocks[k]) % params_.filter_bits();
      const auto& bits = items[alive[k]]->bits;
      if ((bits[pos / 64] & (1ull << (pos % 64))) == 0) {
        results[alive[k]] = 0;
      } else {
        alive[kept++] = alive[k];
      }
    }
    alive.resize(kept);
  }
}

bool BloomKeywordScheme::cover(const Trapdoor& a, const Trapdoor& b) {
  return a.parts == b.parts;
}

}  // namespace roar::pps
