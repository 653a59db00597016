// Dictionary keyword PPS (§5.5.2), after Chang & Mitzenmacher.
//
// A fixed dictionary D is agreed in advance. Each metadata carries one
// blinded bit per dictionary word: the index is shuffled by a pseudorandom
// permutation E_{K1} and each bit position i is masked with
// G_{F_{K2}(i)}(rnd). The query reveals one shuffled index plus the key to
// unmask that single position. Unlike the Bloom scheme there are no false
// positives and no per-document word limit; the cost is |D| bits per
// metadata (the paper's 32 kB for an English dictionary).
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pps/aes128.h"
#include "pps/scheme.h"

namespace roar::pps {

class DictionaryScheme {
 public:
  struct EncryptedQuery {
    uint32_t index = 0;    // E_{K1}(λ)
    Sha1Digest unmask;     // F_{K2}(index)
  };
  // Uniform name across keyword backends (see numeric_scheme.h).
  using Trapdoor = EncryptedQuery;
  struct EncryptedMetadata {
    Nonce rnd{};
    std::vector<uint64_t> blinded;  // J: |D| blinded bits

    size_t byte_size() const { return blinded.size() * 8 + sizeof(Nonce); }
  };

  DictionaryScheme(const SecretKey& key, std::vector<std::string> dictionary);

  size_t dictionary_size() const { return dictionary_.size(); }
  // Index lookup; returns false if the word is not in the dictionary
  // (such queries cannot be formed — Definition 7's unforgeability).
  bool contains(std::string_view word) const;

  EncryptedQuery encrypt_query(std::string_view word) const;
  EncryptedMetadata encrypt_metadata(std::span<const std::string> words,
                                     Rng& rng) const;

  static bool match(const EncryptedMetadata& m, const EncryptedQuery& q,
                    MatchCost* cost = nullptr);
  static bool cover(const EncryptedQuery& a, const EncryptedQuery& b);

 private:
  uint32_t shuffled_index(uint32_t plain_index) const;
  static bool mask_bit(const Sha1Digest& position_key, const Nonce& rnd);

  std::vector<std::string> dictionary_;
  std::unordered_map<std::string, uint32_t> word_to_index_;
  Aes128 prp_;        // E_{K1}
  HmacSha1 prf_k2_;   // F_{K2}
};

}  // namespace roar::pps
