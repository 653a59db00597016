#include "pps/file_metadata.h"

#include <algorithm>
#include <array>
#include <utility>

#include "pps/corpus.h"

namespace roar::pps {
namespace {

// Splits a path into its component keywords; every component of the path
// must be searchable (§5.5: "clearly all the components of a path must be
// searchable").
std::vector<std::string> path_words(const std::string& path) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : path) {
    if (c == '/' || c == '.') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

MetadataEncoderParams MetadataEncoderParams::defaults() {
  MetadataEncoderParams p;
  // Sized for: ~50 content keywords (+41 rank words), ~25 path words,
  // ~80 size inequality words, ~24 mtime range words ≈ 220 words. At the
  // paper's 25 bits/word this is ~690 B per metadata (the paper's combined
  // encoding is 500 B with fewer attributes enabled).
  p.bloom.expected_words = 224;
  p.bloom.bits_per_word = 25;
  p.bloom.hash_count = 17;
  return p;
}

MetadataEncoderParams MetadataEncoderParams::keyword_only() {
  MetadataEncoderParams p;
  p.bloom.expected_words = 50;
  p.bloom.bits_per_word = 25;
  p.bloom.hash_count = 17;
  p.ranked_keywords = false;
  p.numeric_attributes = false;
  return p;
}

MetadataEncoder::MetadataEncoder(const SecretKey& key,
                                 MetadataEncoderParams params)
    : params_(params),
      keyword_(key, params.bloom),
      size_points_(exponential_reference_points(params.max_file_size)),
      mtime_partitions_(dyadic_partitions(params.mtime_lo, params.mtime_hi,
                                          params.mtime_min_width,
                                          params.mtime_levels)) {}

std::vector<std::string> MetadataEncoder::words_for(
    const FileInfo& info) const {
  std::vector<std::string> words;

  for (auto& w : path_words(info.path)) {
    words.push_back("kw=" + w);
  }

  if (params_.ranked_keywords) {
    std::vector<std::string> prefixed;
    prefixed.reserve(info.content_keywords.size());
    for (const auto& w : info.content_keywords) {
      prefixed.push_back("kw=" + w);
    }
    auto ranked = ranked_words(prefixed);
    words.insert(words.end(), ranked.begin(), ranked.end());
  } else {
    for (const auto& w : info.content_keywords) {
      words.push_back("kw=" + w);
    }
  }

  if (params_.numeric_attributes) {
    for (auto& w : inequality_words(info.size_bytes, size_points_)) {
      words.push_back("sz" + w);
    }
    for (auto& w : range_words(info.mtime, mtime_partitions_)) {
      words.push_back("mt" + w);
    }
  }
  return words;
}

EncryptedFileMetadata MetadataEncoder::encrypt(const FileInfo& info,
                                               Rng& rng) const {
  return std::move(encrypt_corpus(*this, {&info, 1}, rng, 1).front());
}

BloomKeywordScheme::Trapdoor MetadataEncoder::keyword_query(
    std::string_view word) const {
  return keyword_.encrypt_query("kw=" + std::string(word));
}

BloomKeywordScheme::Trapdoor MetadataEncoder::ranked_keyword_query(
    std::string_view word, uint32_t bucket) const {
  return keyword_.encrypt_query(
      ranked_query_word("kw=" + std::string(word), bucket));
}

BloomKeywordScheme::Trapdoor MetadataEncoder::size_query(IneqType type,
                                                         int64_t value) const {
  return keyword_.encrypt_query(
      "sz" + inequality_query_word(type, value, size_points_));
}

BloomKeywordScheme::Trapdoor MetadataEncoder::mtime_range_query(
    int64_t lb, int64_t ub) const {
  return keyword_.encrypt_query("mt" +
                                range_query_word(lb, ub, mtime_partitions_));
}

void MetadataEncoder::match_batch(
    std::span<const EncryptedFileMetadata* const> items,
    const BloomKeywordScheme::PreparedTrapdoor& q, uint8_t* results,
    MatchCost* cost) const {
  // Chunked so the pointer indirection stays on the stack; 128 blocks is
  // plenty to keep the 8-wide AES kernel saturated.
  constexpr size_t kChunk = 128;
  std::array<const BloomKeywordScheme::EncryptedMetadata*, kChunk> encs;
  for (size_t off = 0; off < items.size(); off += kChunk) {
    size_t n = std::min(kChunk, items.size() - off);
    for (size_t k = 0; k < n; ++k) encs[k] = &items[off + k]->enc;
    keyword_.match_batch({encs.data(), n}, q, results + off, cost);
  }
}

}  // namespace roar::pps
