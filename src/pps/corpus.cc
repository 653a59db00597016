#include "pps/corpus.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

namespace roar::pps {

CorpusGenerator::CorpusGenerator(CorpusParams params, uint64_t seed)
    : params_(params),
      rng_(seed),
      zipf_(params.vocabulary_size, params.zipf_exponent) {}

std::string CorpusGenerator::word(uint64_t rank) {
  std::string w = "w";
  w += std::to_string(rank);
  return w;
}

FileInfo CorpusGenerator::sample_document(uint64_t key) {
  FileInfo f;
  f.path = "ingest/doc" + std::to_string(key) + ".txt";
  // Two keywords in the frequent band: key-dependent so different docs
  // differ, low-ranked so a rank-8 engine query sees some of them.
  f.content_keywords = {word(1 + key % 16), word(1 + (key / 16) % 64)};
  f.size_bytes = static_cast<int64_t>(512 + key % 4096);
  f.mtime = static_cast<int64_t>(1'400'000'000 + key % 100'000'000);
  return f;
}

FileInfo CorpusGenerator::next_file() {
  FileInfo f;

  // Path: depth between 2 and max_path_depth, geometric-ish (most files are
  // shallow), components drawn from the vocabulary.
  uint32_t depth = 2;
  while (depth < params_.max_path_depth && rng_.next_double() < 0.55) ++depth;
  std::string path = "home";
  for (uint32_t d = 1; d < depth; ++d) {
    path += '/';
    path += word(zipf_.next(rng_));
  }
  path += "/file";
  path += std::to_string(next_file_index_++);
  path += '_';
  path += word(zipf_.next(rng_));
  path += ".txt";
  f.path = std::move(path);

  // Content keywords: distinct Zipf draws, kept in draw order. Earlier
  // draws are *not* necessarily more important; importance order is the
  // order we store, so shuffle-free draw order is fine for rank buckets.
  std::unordered_set<uint64_t> seen;
  while (f.content_keywords.size() < params_.content_keywords_per_file) {
    uint64_t r = zipf_.next(rng_);
    if (seen.insert(r).second) {
      f.content_keywords.push_back(word(r));
    }
    if (seen.size() >= params_.vocabulary_size) break;
  }

  // Size: log-uniform between 128 B and max_file_size.
  double lo = std::log(128.0);
  double hi = std::log(static_cast<double>(params_.max_file_size));
  f.size_bytes =
      static_cast<int64_t>(std::exp(lo + rng_.next_double() * (hi - lo)));

  f.mtime = params_.mtime_lo +
            static_cast<int64_t>(rng_.next_double() *
                                 static_cast<double>(params_.mtime_hi -
                                                     params_.mtime_lo));
  return f;
}

std::vector<FileInfo> CorpusGenerator::generate(size_t count) {
  std::vector<FileInfo> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(next_file());
  return out;
}

namespace {

// Runs fn(begin, end) over `threads` contiguous slices of [0, n): the
// first on the calling thread, the rest on transient workers, joined
// (also on unwind) before returning.
template <typename Fn>
void split(size_t n, unsigned threads, const Fn& fn) {
  std::vector<std::jthread> pool;
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back(fn, n * t / threads, n * (t + 1) / threads);
  }
  fn(size_t{0}, n / threads);
}

}  // namespace

std::vector<EncryptedFileMetadata> encrypt_corpus(
    const MetadataEncoder& encoder, std::span<const FileInfo> files,
    Rng& rng, unsigned workers) {
  constexpr size_t kMinFilesPerThread = 256;
  const BloomKeywordScheme& bloom = encoder.backend();
  const size_t r = bloom.params().hash_count;
  const size_t n = files.size();
  if (workers == 0) workers = std::thread::hardware_concurrency();
  const auto threads = static_cast<unsigned>(
      std::clamp<size_t>(n / kMinFilesPerThread, 1, std::max(workers, 1u)));

  // Pass 1: every draw in stream order; words become table rows.
  std::vector<BloomKeywordScheme::Draws> draws(n);
  std::vector<EncryptedFileMetadata> out(n);
  std::unordered_map<std::string, uint32_t> row_of;  // nodes never move
  std::vector<const std::string*> distinct;
  std::vector<std::vector<uint32_t>> rows(n);  // each file's words' rows
  for (size_t i = 0; i < n; ++i) {
    auto words = encoder.words_for(files[i]);
    out[i].id = rng.next_ring_id();
    draws[i] = bloom.draw(words.size(), rng);
    for (auto& w : words) {
      auto [it, fresh] = row_of.try_emplace(
          std::move(w), static_cast<uint32_t>(distinct.size()));
      if (fresh) distinct.push_back(&it->first);
      rows[i].push_back(it->second);
    }
  }

  // Pass 2: the trapdoor table, r codeword keys per distinct word.
  std::vector<AesKey> table(distinct.size() * r);
  split(distinct.size(), threads, [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      bloom.codeword_keys(*distinct[j], &table[j * r]);
    }
  });

  // Pass 3: each filter from its draws and its words' table rows.
  split(n, threads, [&](size_t begin, size_t end) {
    std::vector<AesKey> keys;
    for (size_t i = begin; i < end; ++i) {
      keys.clear();
      for (uint32_t row : rows[i]) {
        keys.insert(keys.end(), &table[row * r], &table[row * r] + r);
      }
      out[i].enc = bloom.fill(draws[i], keys);
    }
  });
  return out;
}

}  // namespace roar::pps
