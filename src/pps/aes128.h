// AES-128 (FIPS 197) block cipher, implemented from scratch.
//
// PPS uses AES-128 as its pseudorandom permutation (§5.6: "We used 128-bit
// AES for the symmetric encryption scheme and as a pseudorandom
// permutation"). The Dictionary scheme permutes word indexes with it, and
// the corpus tools use it in CTR mode for payload encryption, and it is the
// Bloom scheme's per-document codeword PRF, so server-side PPS matching is
// AES bound. encrypt_blocks runs that matching kernel on AES-NI when the
// CPU has it, encrypt_keyed runs the corpus encryptor's one-block-per-key
// kernel, and key schedules are expanded with aesenclast; the
// portable table-free S-box implementation, tuned for clarity, is the
// fallback and the test reference.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace roar::pps {

using AesKey = std::array<uint8_t, 16>;
using AesBlock = std::array<uint8_t, 16>;

class Aes128 {
 public:
  using RoundKeys = std::array<AesBlock, 11>;

  explicit Aes128(const AesKey& key);

  // The expanded key schedule (exposed for tests).
  const RoundKeys& round_keys() const { return round_keys_; }

  AesBlock encrypt_block(const AesBlock& in) const;
  AesBlock decrypt_block(const AesBlock& in) const;

  // Encrypts `n` independent blocks (ECB over the arrays). On x86 with
  // AES-NI this runs 8-wide interleaved — one aesenc per round per block
  // with the latency of the instruction hidden across the batch — and is
  // the engine behind the batched Bloom-codeword matcher. Byte-identical
  // to n calls of encrypt_block on every path. in == out is allowed.
  void encrypt_blocks(const AesBlock* in, AesBlock* out, size_t n) const;

  // Encrypts block i under its own key: out[i] = Aes128(keys[i])
  // .encrypt_block(in[i]) for i < n. On x86 with AES-NI each key schedule
  // is expanded on the fly, round by round, 8 blocks interleaved, so no
  // schedule is ever stored; this is the Bloom codeword kernel of corpus
  // encryption, where every (word, probe) pair has its own key. in == out
  // is allowed.
  static void encrypt_keyed(const AesKey* keys, const AesBlock* in,
                            AesBlock* out, size_t n);

  // True when the hardware AES path is compiled in, supported by this
  // CPU, and not disabled by set_force_scalar.
  static bool accelerated();
  // Test hook (process-wide): force the portable scalar implementation so
  // equivalence tests can diff the two paths on the same machine.
  static void set_force_scalar(bool v);

  // Pseudorandom permutation over [0, 2^64): encrypts the value in a fixed
  // block layout. Not format-preserving over smaller domains; Dictionary
  // uses cycle-walking (see permute_below).
  uint64_t permute_u64(uint64_t v) const;
  uint64_t inverse_permute_u64(uint64_t v) const;

  // Format-preserving permutation over [0, bound) via cycle walking on
  // permute_u64. Expected iterations: 2^64 / bound is huge for small bound,
  // so instead we cycle-walk a power-of-two domain >= bound. bound > 0.
  uint64_t permute_below(uint64_t v, uint64_t bound) const;

  // CTR keystream XOR (encrypt == decrypt).
  void ctr_xor(std::span<uint8_t> data, uint64_t nonce) const;

 private:
  AesBlock encrypt_block_scalar(const AesBlock& in) const;

  RoundKeys round_keys_;
};

}  // namespace roar::pps
