#include "pps/equal_scheme.h"

namespace roar::pps {

EqualScheme::EqualScheme(const SecretKey& key) : key_(key.derive("equal")) {}

EqualScheme::EncryptedQuery EqualScheme::encrypt_query(
    std::string_view value) const {
  return EncryptedQuery{key_.mac(value)};
}

EqualScheme::EncryptedMetadata EqualScheme::encrypt_metadata(
    std::string_view value, Rng& rng) const {
  EncryptedMetadata out;
  out.rnd = make_nonce(rng);
  Sha1Digest hidden = key_.mac(value);
  out.tag = hmac_sha1(as_span(hidden), as_span(out.rnd));
  return out;
}

bool EqualScheme::match(const EncryptedMetadata& m, const EncryptedQuery& q,
                        MatchCost* cost) {
  if (cost != nullptr) cost->bump();
  return hmac_sha1(as_span(q.hidden), as_span(m.rnd)) == m.tag;
}

bool EqualScheme::cover(const EncryptedQuery& a, const EncryptedQuery& b) {
  return a.hidden == b.hidden;
}

}  // namespace roar::pps
