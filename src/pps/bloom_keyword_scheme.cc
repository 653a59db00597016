#include "pps/bloom_keyword_scheme.h"

#include <algorithm>
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

void BloomKeywordScheme::set_word(EncryptedMetadata& m,
                                  const Trapdoor& t) const {
  for (uint32_t i = 0; i < t.parts.size(); ++i) {
    Aes128 cipher(key_from_part(t.parts[i]));
    uint32_t pos = codeword_position(m.rnd, cipher, i);
    m.bits[pos / 64] |= (1ull << (pos % 64));
  }
}

BloomKeywordScheme::EncryptedMetadata BloomKeywordScheme::encrypt_metadata(
    std::span<const std::string> words, Rng& rng) const {
  EncryptedMetadata m;
  m.rnd = make_nonce(rng);
  m.bits.assign((params_.filter_bits() + 63) / 64, 0);
  m.word_count = static_cast<uint32_t>(words.size());
  for (const auto& w : words) {
    set_word(m, encrypt_query(w));
  }
  // Pad: set random bits as if `expected_words` words were present, so the
  // popcount does not reveal the document's true word count.
  if (words.size() < params_.expected_words) {
    uint64_t missing =
        (params_.expected_words - words.size()) * params_.hash_count;
    for (uint64_t i = 0; i < missing; ++i) {
      uint64_t pos = rng.next_below(params_.filter_bits());
      m.bits[pos / 64] |= (1ull << (pos % 64));
    }
  }
  return m;
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
