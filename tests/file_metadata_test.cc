#include "pps/file_metadata.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>

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

// Runs `check` under every combination of the portable and hardware SHA-1
// and AES paths; all four must produce the same bytes.
template <typename Check>
void on_every_path(const Check& check) {
  for (bool sha_scalar : {false, true}) {
    for (bool aes_scalar : {false, true}) {
      Sha1::set_force_scalar(sha_scalar);
      Aes128::set_force_scalar(aes_scalar);
      SCOPED_TRACE(std::string(sha_scalar ? "portable" : "default") +
                   " SHA-1, " + (aes_scalar ? "portable" : "default") +
                   " AES");
      check();
    }
  }
  Sha1::set_force_scalar(false);
  Aes128::set_force_scalar(false);
}

// The expected digests come from the portable SHA-1 with one-off HMACs and
// one cipher per codeword; every path must reproduce them byte for byte.
TEST(CorpusEncryptionTest, GoldenDigestKeywordOnly) {
  on_every_path([] {
    EXPECT_EQ(corpus_digest(MetadataEncoderParams::keyword_only(), 48),
              "0a08fa78bbea398a80411ff66ab0f7f49281748e");
  });
}

TEST(CorpusEncryptionTest, GoldenDigestDefaults) {
  on_every_path([] {
    EXPECT_EQ(corpus_digest(MetadataEncoderParams::defaults(), 16),
              "3d8978e43c6049d46ad0bd740c379e6f31cc1922");
  });
}

// Large enough for words shared across files and for more than one worker
// on a multi-core machine.
TEST(CorpusEncryptionTest, GoldenDigestKeywordOnlyLarge) {
  on_every_path([] {
    EXPECT_EQ(corpus_digest(MetadataEncoderParams::keyword_only(), 1024),
              "f97a03558fd6c6b28ea1e17e0e7a4d98a456a7c0");
  });
}

void expect_same(const std::vector<EncryptedFileMetadata>& a,
                 const std::vector<EncryptedFileMetadata>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id) << "file " << i;
    ASSERT_EQ(a[i].enc.rnd, b[i].enc.rnd) << "file " << i;
    ASSERT_EQ(a[i].enc.bits, b[i].enc.bits) << "file " << i;
    ASSERT_EQ(a[i].enc.word_count, b[i].enc.word_count) << "file " << i;
  }
}

// Bloom encryption in its plainest form (§5.5.2), one file at a time: one
// AES cipher per (word, probe) codeword, keyed by the word's trapdoor
// part, then the padding bits through Rng::next_below.
EncryptedFileMetadata reference_encrypt(const MetadataEncoder& enc,
                                        const FileInfo& f, Rng& rng) {
  const BloomParams& p = enc.backend().params();
  EncryptedFileMetadata m;
  m.id = rng.next_ring_id();
  auto words = enc.words_for(f);
  m.enc.rnd = make_nonce(rng);
  m.enc.bits.assign((p.filter_bits() + 63) / 64, 0);
  m.enc.word_count = static_cast<uint32_t>(words.size());
  auto set = [&m](uint64_t pos) { m.enc.bits[pos / 64] |= 1ull << (pos % 64); };
  for (const auto& w : words) {
    auto trapdoor = enc.backend().encrypt_query(w);
    for (uint32_t i = 0; i < trapdoor.parts.size(); ++i) {
      AesKey key;
      std::copy_n(trapdoor.parts[i].begin(), key.size(), key.begin());
      AesBlock in{};
      std::copy(m.enc.rnd.begin(), m.enc.rnd.end(), in.begin());
      for (int b = 0; b < 4; ++b) in[8 + b] = static_cast<uint8_t>(i >> (8 * b));
      AesBlock y = Aes128(key).encrypt_block(in);
      uint32_t v = (uint32_t{y[0]} << 24) | (uint32_t{y[1]} << 16) |
                   (uint32_t{y[2]} << 8) | y[3];
      set(v % p.filter_bits());
    }
  }
  for (size_t w = words.size(); w < p.expected_words; ++w) {
    for (uint32_t i = 0; i < p.hash_count; ++i) {
      set(rng.next_below(p.filter_bits()));
    }
  }
  return m;
}

// Files with few words, so most filter bits are padding. However the work
// is split, encrypt_corpus produces what encrypting the files one by one
// does, which is what the reference produces, and leaves the caller's
// stream where that loop leaves it.
TEST(CorpusEncryptionTest, WorkerCountDoesNotChangeOutput) {
  CorpusParams cp;
  cp.content_keywords_per_file = 2;
  cp.max_path_depth = 3;
  auto files = CorpusGenerator(cp, 5).generate(7 * 256 + 100);
  MetadataEncoder enc(SecretKey::from_seed(9),
                      MetadataEncoderParams::keyword_only());
  Rng reference_rng(3);
  std::vector<EncryptedFileMetadata> reference;
  for (const auto& f : files) {
    reference.push_back(reference_encrypt(enc, f, reference_rng));
  }
  const uint64_t reference_next = reference_rng.next_u64();
  Rng serial_rng(3);
  std::vector<EncryptedFileMetadata> serial;
  for (const auto& f : files) serial.push_back(enc.encrypt(f, serial_rng));
  expect_same(serial, reference);
  EXPECT_EQ(serial_rng.next_u64(), reference_next);
  for (unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    Rng rng(3);
    expect_same(encrypt_corpus(enc, files, rng, workers), serial);
    EXPECT_EQ(rng.next_u64(), reference_next);
  }
}

// Replicas encrypt the same ingested document at the same time; each call
// must produce the same bytes as a lone call.
TEST(CorpusEncryptionTest, ConcurrentEncryptIsDeterministic) {
  MetadataEncoder enc(SecretKey::from_seed(9),
                      MetadataEncoderParams::keyword_only());
  const FileInfo doc = CorpusGenerator::sample_document(42);
  Rng lone_rng(77);
  const std::vector<EncryptedFileMetadata> lone = {enc.encrypt(doc, lone_rng)};
  std::vector<std::vector<EncryptedFileMetadata>> got(4);
  std::vector<std::thread> threads;
  for (auto& g : got) {
    threads.emplace_back([&enc, &doc, &g] {
      for (int i = 0; i < 50; ++i) {
        Rng rng(77);
        g = {enc.encrypt(doc, rng)};
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& g : got) expect_same(g, lone);
}

}  // namespace
}  // namespace roar::pps
