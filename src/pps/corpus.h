// Synthetic file corpus generator.
//
// Substitutes for the author's home-directory dataset (§5.7). Keyword
// frequencies follow a Zipf law over a synthetic vocabulary so keyword
// selectivities span the same range the thesis exploits (wildcard-like
// common words vs rare discriminating words); paths have realistic depth
// (the thesis reports max depth 22); sizes are log-uniform; mtimes uniform.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pps/file_metadata.h"

namespace roar::pps {

struct CorpusParams {
  uint64_t vocabulary_size = 20'000;
  double zipf_exponent = 1.0;
  uint32_t content_keywords_per_file = 50;  // paper: "say 50"
  uint32_t max_path_depth = 22;             // paper's observed maximum
  int64_t max_file_size = 1'000'000'000;
  int64_t mtime_lo = 1'000'000'000;
  int64_t mtime_hi = 1'600'000'000;
};

class CorpusGenerator {
 public:
  CorpusGenerator(CorpusParams params, uint64_t seed);

  // The word with the given Zipf rank (rank 1 = most frequent).
  static std::string word(uint64_t rank);

  // A deterministic synthetic document for live-ingest workloads: the
  // same key yields the same file everywhere (tests drive identical op
  // streams through different harnesses and compare results). Keywords
  // are low Zipf ranks, so ingested docs move real match counts.
  static FileInfo sample_document(uint64_t key);

  FileInfo next_file();
  std::vector<FileInfo> generate(size_t count);

  const CorpusParams& params() const { return params_; }

 private:
  CorpusParams params_;
  Rng rng_;
  ZipfGenerator zipf_;
  uint64_t next_file_index_ = 0;
};

// Encrypts a corpus under `encoder`, assigning uniform ring ids. The
// output, and where `rng` is left, are those of calling encoder.encrypt()
// on each file in turn, but the work runs in three passes:
//   1. walk the stream (sequential): each file's words, ring id, nonce and
//      padding draws, counted but not yet set;
//   2. trapdoor table (parallel): the codeword keys of each distinct word,
//      one HMAC per word and hash function for the whole corpus;
//   3. fill (parallel): each filter's padding, replayed from its stream
//      snapshot, and all its codewords in one multi-key AES call.
// `workers` caps the threads (0: one per core); each thread takes at least
// 256 files, so small corpora stay on the calling thread.
std::vector<EncryptedFileMetadata> encrypt_corpus(
    const MetadataEncoder& encoder, std::span<const FileInfo> files,
    Rng& rng, unsigned workers = 0);

}  // namespace roar::pps
