#include "pps/dictionary_scheme.h"

#include <cstring>
#include <stdexcept>

namespace roar::pps {
namespace {

AesKey aes_key_from(const Sha1Digest& d) {
  AesKey k;
  std::memcpy(k.data(), d.data(), k.size());
  return k;
}

}  // namespace

DictionaryScheme::DictionaryScheme(const SecretKey& key,
                                   std::vector<std::string> dictionary)
    : dictionary_(std::move(dictionary)),
      prp_(aes_key_from(key.derive("dict:prp"))),
      prf_k2_(key.derive("dict:prf")) {
  word_to_index_.reserve(dictionary_.size());
  for (uint32_t i = 0; i < dictionary_.size(); ++i) {
    word_to_index_.emplace(dictionary_[i], i);
  }
}

bool DictionaryScheme::contains(std::string_view word) const {
  return word_to_index_.find(std::string(word)) != word_to_index_.end();
}

uint32_t DictionaryScheme::shuffled_index(uint32_t plain_index) const {
  return static_cast<uint32_t>(
      prp_.permute_below(plain_index, dictionary_.size()));
}

bool DictionaryScheme::mask_bit(const Sha1Digest& position_key,
                                const Nonce& rnd) {
  // G_{r_i}(rnd): one pseudorandom bit per (position key, nonce) pair.
  Sha1Digest g = hmac_sha1(as_span(position_key), as_span(rnd));
  return (g[0] & 1) != 0;
}

DictionaryScheme::EncryptedQuery DictionaryScheme::encrypt_query(
    std::string_view word) const {
  auto it = word_to_index_.find(std::string(word));
  if (it == word_to_index_.end()) {
    throw std::invalid_argument("word not in dictionary: " +
                                std::string(word));
  }
  EncryptedQuery q;
  q.index = shuffled_index(it->second);
  q.unmask = prf_k2_.mac(std::to_string(q.index));
  return q;
}

DictionaryScheme::EncryptedMetadata DictionaryScheme::encrypt_metadata(
    std::span<const std::string> words, Rng& rng) const {
  EncryptedMetadata m;
  m.rnd = make_nonce(rng);
  size_t n = dictionary_.size();
  std::vector<uint64_t> plain((n + 63) / 64, 0);
  for (const auto& w : words) {
    auto it = word_to_index_.find(w);
    if (it == word_to_index_.end()) continue;  // not representable
    uint32_t idx = shuffled_index(it->second);
    plain[idx / 64] |= (1ull << (idx % 64));
  }
  m.blinded.assign(plain.size(), 0);
  for (uint32_t i = 0; i < n; ++i) {
    Sha1Digest ri = prf_k2_.mac(std::to_string(i));
    bool bit = (plain[i / 64] >> (i % 64)) & 1;
    bool masked = bit ^ mask_bit(ri, m.rnd);
    if (masked) m.blinded[i / 64] |= (1ull << (i % 64));
  }
  return m;
}

bool DictionaryScheme::match(const EncryptedMetadata& m,
                             const EncryptedQuery& q, MatchCost* cost) {
  if (cost != nullptr) cost->bump();
  bool stored = (m.blinded[q.index / 64] >> (q.index % 64)) & 1;
  return stored ^ mask_bit(q.unmask, m.rnd);
}

bool DictionaryScheme::cover(const EncryptedQuery& a,
                             const EncryptedQuery& b) {
  return a.index == b.index && a.unmask == b.unmask;
}

}  // namespace roar::pps
