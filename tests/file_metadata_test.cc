#include "pps/file_metadata.h"

#include <gtest/gtest.h>

#include <string>

#include "pps/corpus.h"

namespace roar::pps {
namespace {

class FileMetadataTest : public ::testing::Test {
 protected:
  SecretKey key_ = SecretKey::from_seed(2024);
  MetadataEncoder enc_{key_};
  Rng rng_{11};

  FileInfo sample_file() {
    FileInfo f;
    f.path = "home/projects/roar/notes.txt";
    f.content_keywords = {"rendezvous", "ring", "replication", "search"};
    f.size_bytes = 50'000;
    f.mtime = 1'500'000'000;
    return f;
  }
};

TEST_F(FileMetadataTest, KeywordMatchOnContent) {
  auto m = enc_.encrypt(sample_file(), rng_);
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("rendezvous")));
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("search")));
  EXPECT_FALSE(enc_.match(m, enc_.keyword_query("absent")));
}

TEST_F(FileMetadataTest, KeywordMatchOnPathComponents) {
  auto m = enc_.encrypt(sample_file(), rng_);
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("projects")));
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("notes")));
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("txt")));
}

TEST_F(FileMetadataTest, AttributeNamespacesAreIsolated) {
  // A content keyword must not be matchable via a size or ranked query
  // namespace and vice versa: "kw=" prefixing isolates attributes.
  auto m = enc_.encrypt(sample_file(), rng_);
  EXPECT_FALSE(enc_.match(m, enc_.keyword_query(">10000")));
}

TEST_F(FileMetadataTest, SizeInequality) {
  auto m = enc_.encrypt(sample_file(), rng_);  // 50 kB file
  EXPECT_TRUE(enc_.match(m, enc_.size_query(IneqType::kGreater, 10'000)));
  EXPECT_FALSE(enc_.match(m, enc_.size_query(IneqType::kGreater, 1'000'000)));
  EXPECT_TRUE(enc_.match(m, enc_.size_query(IneqType::kLess, 1'000'000)));
  EXPECT_FALSE(enc_.match(m, enc_.size_query(IneqType::kLess, 10'000)));
}

TEST_F(FileMetadataTest, MtimeRange) {
  auto m = enc_.encrypt(sample_file(), rng_);  // mtime 1.5e9
  EXPECT_TRUE(
      enc_.match(m, enc_.mtime_range_query(1'400'000'000, 1'600'000'000)));
  EXPECT_FALSE(
      enc_.match(m, enc_.mtime_range_query(1'000'000'000, 1'100'000'000)));
}

TEST_F(FileMetadataTest, RankedQueries) {
  auto m = enc_.encrypt(sample_file(), rng_);
  // "rendezvous" is the most important keyword.
  EXPECT_TRUE(enc_.match(m, enc_.ranked_keyword_query("rendezvous", 1)));
  EXPECT_FALSE(enc_.match(m, enc_.ranked_keyword_query("search", 1)));
  EXPECT_TRUE(enc_.match(m, enc_.ranked_keyword_query("search", 5)));
}

TEST_F(FileMetadataTest, MetadataSizeNearPaper) {
  auto m = enc_.encrypt(sample_file(), rng_);
  // Paper: ~500 B per combined metadata; ours carries more attributes
  // (ranked buckets + dyadic mtime partitions) → ≤ 800 B.
  EXPECT_LE(m.byte_size(), 800u);
  EXPECT_GE(m.byte_size(), 300u);
}

TEST_F(FileMetadataTest, WordDocumentWithinBloomCapacity) {
  auto words = enc_.words_for(sample_file());
  EXPECT_LE(words.size(), enc_.params().bloom.expected_words);
}

TEST_F(FileMetadataTest, FullKeywordLoadStaysWithinCapacity) {
  FileInfo f = sample_file();
  f.content_keywords.clear();
  for (int i = 0; i < 50; ++i) {
    f.content_keywords.push_back("kw" + std::to_string(i));
  }
  // Deep path too.
  f.path = "a";
  for (int i = 0; i < 21; ++i) f.path += "/d" + std::to_string(i);
  f.path += "/leaf.txt";
  auto words = enc_.words_for(f);
  EXPECT_LE(words.size(), enc_.params().bloom.expected_words)
      << "encoder capacity must cover the paper's max document";
  auto m = enc_.encrypt(f, rng_);
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("kw49")));
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("d20")));
}

TEST_F(FileMetadataTest, IdsAreUniformlyDistributed) {
  // Ring ids drive ROAR placement; a heavily skewed assignment would break
  // load balancing. Coarse uniformity check over 2000 files.
  Rng rng(99);
  int buckets[4] = {0, 0, 0, 0};
  for (int i = 0; i < 2000; ++i) {
    auto m = enc_.encrypt(sample_file(), rng);
    buckets[m.id.raw() >> 62]++;
  }
  for (int b : buckets) EXPECT_NEAR(b, 500, 120);
}

// SHA-1 over encrypt_corpus output: each item's ring id, nonce and filter
// words, little-endian. Any change to the PRFs, the word document or the
// RNG draw order re-keys every stored corpus and shows up here.
std::string corpus_digest(MetadataEncoderParams params, size_t files) {
  SecretKey key = SecretKey::from_seed(2024);
  MetadataEncoder enc(key, params);
  CorpusGenerator gen(CorpusParams{}, 7);
  auto corpus = gen.generate(files);
  Rng rng(7);
  Sha1 h;
  auto put_u64 = [&h](uint64_t v) {
    uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<uint8_t>(v >> (i * 8));
    h.update(std::span<const uint8_t>(le, 8));
  };
  for (const auto& m : encrypt_corpus(enc, corpus, rng)) {
    put_u64(m.id.raw());
    h.update(std::span<const uint8_t>(m.enc.rnd));
    for (uint64_t w : m.enc.bits) put_u64(w);
  }
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (uint8_t b : h.finish()) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

// The expected digests come from the portable SHA-1 with one-off HMACs;
// both compression paths must reproduce them byte for byte.
TEST(CorpusEncryptionTest, GoldenDigestKeywordOnly) {
  for (bool scalar : {false, true}) {
    Sha1::set_force_scalar(scalar);
    EXPECT_EQ(corpus_digest(MetadataEncoderParams::keyword_only(), 48),
              "0a08fa78bbea398a80411ff66ab0f7f49281748e")
        << (scalar ? "portable" : "default") << " SHA-1 path";
  }
  Sha1::set_force_scalar(false);
}

TEST(CorpusEncryptionTest, GoldenDigestDefaults) {
  for (bool scalar : {false, true}) {
    Sha1::set_force_scalar(scalar);
    EXPECT_EQ(corpus_digest(MetadataEncoderParams::defaults(), 16),
              "3d8978e43c6049d46ad0bd740c379e6f31cc1922")
        << (scalar ? "portable" : "default") << " SHA-1 path";
  }
  Sha1::set_force_scalar(false);
}

}  // namespace
}  // namespace roar::pps
