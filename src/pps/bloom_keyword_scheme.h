// Bloom-filter keyword PPS (§5.5.2), after Goh's secure index.
//
// Each metadata is a Bloom filter over per-document codewords: the trapdoor
// for word w is (F_{k_1}(w), …, F_{k_r}(w)); the stored codewords are
// y_i = F_rnd(x_i), so the same word sets different bits in different
// documents and the filter leaks nothing without a trapdoor. Matching
// computes the r codewords for the query trapdoor and tests bits, exiting
// on the first zero (the paper's average r/2 hashes on a non-match).
//
// The per-document codeword PRF is AES-128 (§5.6: AES serves as the
// symmetric primitive) keyed by the trapdoor part, applied to the
// document nonce and probe index: y_i = AES_{x_i}(rnd ‖ i). Keying by the
// secret trapdoor part (rather than by the public nonce) gives the
// cleaner PRF assumption, and it makes the server's hot loop a pure AES
// workload: a PreparedTrapdoor expands the r key schedules once per
// query, and match_batch streams the per-document blocks through the
// multi-block AES kernel (AES-NI interleaved when available) with
// survivor compaction reproducing the probe-by-probe early exit.
// Encryption runs the same PRF with one key per codeword: fill() sends
// every (word, probe) block of a document through Aes128::encrypt_keyed,
// which expands each key schedule on the fly.
//
// Paper parameters: r = 17 hash functions and ~25 bits per element give a
// 1-in-100,000 false-positive rate; 50 keywords → ~130 B filters.
#pragma once

#include <string_view>
#include <vector>

#include "pps/aes128.h"
#include "pps/scheme.h"

namespace roar::pps {

struct BloomParams {
  uint32_t hash_count = 17;      // r
  uint32_t expected_words = 50;  // capacity the filter is sized for
  uint32_t bits_per_word = 25;   // m / expected_words

  uint32_t filter_bits() const { return expected_words * bits_per_word; }
  // Expected false-positive probability at full capacity.
  double false_positive_rate() const;
};

class BloomKeywordScheme {
 public:
  struct Trapdoor {
    std::vector<Sha1Digest> parts;  // r PRF values, one per hash function
  };
  // A trapdoor with its r AES key schedules expanded — build once per
  // query (prepare()), reuse across every document matched against it.
  struct PreparedTrapdoor {
    std::vector<Aes128> ciphers;  // one per trapdoor part
  };
  struct EncryptedMetadata {
    Nonce rnd{};
    std::vector<uint64_t> bits;  // packed filter
    uint32_t word_count = 0;     // diagnostic only (padding hides it on wire)

    size_t byte_size() const { return bits.size() * 8 + sizeof(Nonce); }
  };

  BloomKeywordScheme(const SecretKey& key, BloomParams params = {});

  const BloomParams& params() const { return params_; }

  Trapdoor encrypt_query(std::string_view word) const;

  // The AES keys of `word`'s codeword PRFs: the first 16 bytes of each
  // trapdoor part. Writes hash_count keys to `out`.
  void codeword_keys(std::string_view word, AesKey* out) const;

  // The randomness one document's encryption consumes, in stream order:
  // its nonce, then the random bits that pad it to `expected_words`
  // words (§5.5.2: "add random bits to the BF to simulate the proper
  // number of words"). `padding` is the stream at the first padding
  // draw, so fill() can replay those draws later, on any thread.
  struct Draws {
    Nonce rnd{};
    Rng padding;
    uint64_t padding_bits = 0;  // accepted padding draws
  };
  // Draws the nonce of a document with `word_count` words and steps `rng`
  // past its padding draws, setting no bits.
  Draws draw(size_t word_count, Rng& rng) const;
  // Builds the filter from `d`: replays the padding, then sets the
  // codeword bit of every (word, probe) pair through one
  // Aes128::encrypt_keyed call. `keys` holds codeword_keys() of each word
  // in turn, hash_count keys per word.
  EncryptedMetadata fill(const Draws& d, std::span<const AesKey> keys) const;

  // draw() + codeword_keys() + fill() for one document.
  EncryptedMetadata encrypt_metadata(std::span<const std::string> words,
                                     Rng& rng) const;

  PreparedTrapdoor prepare(const Trapdoor& q) const;

  bool match(const EncryptedMetadata& m, const Trapdoor& q,
             MatchCost* cost = nullptr) const;
  bool match(const EncryptedMetadata& m, const PreparedTrapdoor& q,
             MatchCost* cost = nullptr) const;
  // Matches `q` against every document in `items`, writing 0/1 per item.
  // Probe-major with survivor compaction: probe i runs for every item
  // still alive, through one multi-block AES call — so the PRF-call count
  // (and `cost`) is identical to item-by-item match() with its early
  // exit, but the AES unit sees batches instead of single blocks.
  void match_batch(std::span<const EncryptedMetadata* const> items,
                   const PreparedTrapdoor& q, uint8_t* results,
                   MatchCost* cost = nullptr) const;
  static bool cover(const Trapdoor& a, const Trapdoor& b);

 private:
  uint32_t codeword_position(const Nonce& rnd, const Aes128& cipher,
                             uint32_t i) const;

  BloomParams params_;
  std::vector<HmacSha1> keys_;  // F_{k_1} … F_{k_r}
};

}  // namespace roar::pps
