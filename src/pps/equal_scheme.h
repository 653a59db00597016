// Equality-matching PPS (§5.5.1), after Song et al.'s first step.
//
//   EncryptQuery(K, Q)    = F_K(Q)
//   EncryptMetadata(K, M) = (rnd, F_{F_K(M)}(rnd))  with fresh random rnd
//   Match((rnd, two), Qe) = [ F_Qe(rnd) == two ]
//
// Metadata ciphertexts for values never queried are indistinguishable from
// random; a query reveals exactly which metadata equal its plaintext.
#pragma once

#include <string_view>

#include "pps/scheme.h"

namespace roar::pps {

class EqualScheme {
 public:
  struct EncryptedQuery {
    Sha1Digest hidden;  // F_K(Q)
  };
  struct EncryptedMetadata {
    Nonce rnd;
    Sha1Digest tag;  // F_{F_K(M)}(rnd)
  };

  explicit EqualScheme(const SecretKey& key);

  EncryptedQuery encrypt_query(std::string_view value) const;
  EncryptedMetadata encrypt_metadata(std::string_view value, Rng& rng) const;

  static bool match(const EncryptedMetadata& m, const EncryptedQuery& q,
                    MatchCost* cost = nullptr);
  // Equality queries cover each other only when identical.
  static bool cover(const EncryptedQuery& a, const EncryptedQuery& b);

 private:
  HmacSha1 key_;  // F_K under the derived sub-key for this scheme
};

}  // namespace roar::pps
