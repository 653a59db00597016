// Per-file searchable metadata and its single-attribute encoding (§5.6.4).
//
// Each user file contributes one encrypted metadata holding every
// searchable attribute: path/filename keywords, content keywords (with
// rank buckets for §5.5.4 ranked queries), file size (inequality words over
// exponential reference points) and modification time (range words over
// dyadic partitions). All attributes are namespaced ("kw=", "sz", "mt")
// into one Bloom-filter document — the paper's "stack up all the
// attributes in a single dictionary" trick, which hides which attribute a
// query targets.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/ring_id.h"
#include "pps/bloom_keyword_scheme.h"
#include "pps/numeric_scheme.h"
#include "pps/scheme.h"

namespace roar::pps {

// Plaintext searchable facts about one file.
struct FileInfo {
  std::string path;  // e.g. "home/projects/roar/notes.txt"
  std::vector<std::string> content_keywords;  // ordered by importance
  int64_t size_bytes = 0;
  int64_t mtime = 0;  // seconds since epoch
};

// The wire/storage form: a ring id (assigned uniformly at random, §4.1)
// plus the Bloom ciphertext.
struct EncryptedFileMetadata {
  RingId id;
  BloomKeywordScheme::EncryptedMetadata enc;

  size_t byte_size() const { return enc.byte_size() + sizeof(uint64_t); }
};

struct MetadataEncoderParams {
  BloomParams bloom;                      // sized for the combined document
  int64_t max_file_size = 1'000'000'000;  // domain for size inequalities
  int64_t mtime_lo = 0;
  int64_t mtime_hi = 2'000'000'000;
  int64_t mtime_min_width = 86'400;  // 1 day
  size_t mtime_levels = 12;
  bool ranked_keywords = true;
  // Encode size/mtime words (adds ~100 words per metadata). Benches that
  // only exercise keyword matching disable this: match cost per metadata
  // is unchanged (it depends on the filter, not the word count), while
  // corpus encryption gets ~1.7x faster (1024 files, 4-core x86 VM). Not
  // more, because size/mtime words repeat across files and encrypt_corpus
  // computes each distinct word's trapdoor once.
  bool numeric_attributes = true;

  static MetadataEncoderParams defaults();
  // Keyword-only profile sized like the paper's 50-keyword/130 B metadata.
  static MetadataEncoderParams keyword_only();
};

// Encodes FileInfo into encrypted metadata and builds the matching
// trapdoors. One instance per user key; thread-safe for concurrent reads.
class MetadataEncoder {
 public:
  explicit MetadataEncoder(const SecretKey& key,
                           MetadataEncoderParams params =
                               MetadataEncoderParams::defaults());

  const BloomKeywordScheme& backend() const { return keyword_; }
  const MetadataEncoderParams& params() const { return params_; }

  // The full word document for a file (exposed for tests).
  std::vector<std::string> words_for(const FileInfo& info) const;

  // encrypt_corpus() of the one file, on the calling thread. Calls share
  // no state, so replicas may encrypt concurrently.
  EncryptedFileMetadata encrypt(const FileInfo& info, Rng& rng) const;

  // Trapdoor builders for each predicate type.
  BloomKeywordScheme::Trapdoor keyword_query(std::string_view word) const;
  BloomKeywordScheme::Trapdoor ranked_keyword_query(std::string_view word,
                                                    uint32_t bucket) const;
  BloomKeywordScheme::Trapdoor size_query(IneqType type,
                                          int64_t value) const;
  BloomKeywordScheme::Trapdoor mtime_range_query(int64_t lb,
                                                 int64_t ub) const;

  bool match(const EncryptedFileMetadata& m,
             const BloomKeywordScheme::Trapdoor& q,
             MatchCost* cost = nullptr) const {
    return keyword_.match(m.enc, q, cost);
  }

  // Expand a trapdoor's AES key schedules once; reuse across documents.
  BloomKeywordScheme::PreparedTrapdoor prepare(
      const BloomKeywordScheme::Trapdoor& q) const {
    return keyword_.prepare(q);
  }

  bool match(const EncryptedFileMetadata& m,
             const BloomKeywordScheme::PreparedTrapdoor& q,
             MatchCost* cost = nullptr) const {
    return keyword_.match(m.enc, q, cost);
  }

  // Batched match: writes 0/1 per item. Same outcomes and PRF-call counts
  // as item-by-item match(), but codewords flow through the multi-block
  // AES kernel (see BloomKeywordScheme::match_batch).
  void match_batch(std::span<const EncryptedFileMetadata* const> items,
                   const BloomKeywordScheme::PreparedTrapdoor& q,
                   uint8_t* results, MatchCost* cost = nullptr) const;

 private:
  MetadataEncoderParams params_;
  BloomKeywordScheme keyword_;
  std::vector<int64_t> size_points_;
  std::vector<DomainPartition> mtime_partitions_;
};

}  // namespace roar::pps
