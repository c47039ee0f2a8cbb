// shard::ShardedIndex tests: exact equivalence with the monolithic
// compact index on randomized DNA/protein corpora for every query kind
// (boundary-straddling patterns included), loud pattern admission,
// .spinefam save/load round-trips, bit-flip corruption detection,
// structural verification, and the shared merge's fired-token rule on
// both shard families.

#include "shard/sharded_index.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/rng.h"
#include "compact/compact_spine.h"
#include "core/query.h"
#include "shard/dynamic_family.h"
#include "test_util.h"

namespace spine::shard {
namespace {

using spine::test::RandomDna;
using spine::test::RandomProtein;
using spine::test::ScopedTempDir;

// Every query kind over `pattern`, including occurrence-expanded
// maximal matches.
std::vector<Query> AllKinds(const std::string& pattern, uint32_t min_len) {
  return {Query::Contains(pattern), Query::FindAll(pattern),
          Query::MatchingStats(pattern),
          Query::MaximalMatches(pattern, min_len),
          Query::MaximalMatches(pattern, min_len, /*expand=*/true)};
}

void ExpectFamilyMatchesMonolithic(const CompactSpineIndex& mono,
                                   const ShardedIndex& family,
                                   const std::string& pattern,
                                   const std::string& label) {
  for (const Query& query : AllKinds(pattern, 4)) {
    QueryResult expected = ExecuteQuery(mono, query);
    QueryResult got = family.Execute(query);
    ASSERT_TRUE(got.ok()) << label << ": " << got.error;
    EXPECT_TRUE(got.SameAnswer(expected))
        << label << ", kind " << QueryKindName(query.kind) << ", pattern \""
        << pattern << "\"";
  }
}

TEST(ShardedIndexTest, MatchesMonolithicOnRandomCorpora) {
  Rng rng(1234);
  const struct {
    Alphabet alphabet;
    bool protein;
    uint32_t length;
  } corpora[] = {
      {Alphabet::Dna(), false, 700},
      {Alphabet::Dna(), false, 5'000},
      {Alphabet::Protein(), true, 2'500},
  };
  for (const auto& corpus_spec : corpora) {
    const std::string text = corpus_spec.protein
                                 ? RandomProtein(rng, corpus_spec.length)
                                 : RandomDna(rng, corpus_spec.length);
    CompactSpineIndex mono(corpus_spec.alphabet);
    ASSERT_TRUE(mono.AppendString(text).ok());

    for (uint32_t shards : {1u, 2u, 3u, 7u}) {
      auto family = ShardedIndex::Build(corpus_spec.alphabet, text,
                                        {.shards = shards, .max_pattern = 32});
      ASSERT_TRUE(family.ok()) << family.status().ToString();
      const std::string label = "n=" + std::to_string(text.size()) +
                                " K=" + std::to_string(shards);
      EXPECT_TRUE((*family)->VerifyStructure().ok()) << label;

      // Random slices (hits) and perturbed slices (misses).
      for (int i = 0; i < 25; ++i) {
        const uint32_t len = 1 + rng.Below(32);
        const uint32_t offset =
            static_cast<uint32_t>(rng.Below(text.size() - len));
        std::string pattern = text.substr(offset, len);
        ExpectFamilyMatchesMonolithic(mono, **family, pattern, label);
        pattern[len / 2] = pattern[len / 2] == 'A' ? 'C' : 'A';
        ExpectFamilyMatchesMonolithic(mono, **family, pattern, label);
      }
      // Patterns centered on every shard boundary: these straddle the
      // core split and are only findable through the overlap margin.
      for (uint32_t s = 1; s < (*family)->shard_count(); ++s) {
        const uint64_t boundary = (*family)->info(s).core_start;
        for (uint32_t len : {2u, 9u, 31u}) {
          if (boundary < len || boundary + len > text.size()) continue;
          ExpectFamilyMatchesMonolithic(
              mono, **family, text.substr(boundary - len / 2, len),
              label + " boundary@" + std::to_string(boundary));
        }
      }
    }
  }
}

TEST(ShardedIndexTest, TinyTextsAndEdgePatterns) {
  Rng rng(9);
  for (const std::string& text : {std::string("A"), std::string("ACG"),
                                  RandomDna(rng, 17)}) {
    CompactSpineIndex mono(Alphabet::Dna());
    ASSERT_TRUE(mono.AppendString(text).ok());
    // More shards than characters: K clamps to the text length.
    auto family = ShardedIndex::Build(Alphabet::Dna(), text,
                                      {.shards = 8, .max_pattern = 32});
    ASSERT_TRUE(family.ok()) << family.status().ToString();
    EXPECT_LE((*family)->shard_count(), text.size());
    ExpectFamilyMatchesMonolithic(mono, **family, text, "whole-text");
    ExpectFamilyMatchesMonolithic(mono, **family, text.substr(0, 1), "first");
    ExpectFamilyMatchesMonolithic(mono, **family,
                                  text.substr(text.size() - 1), "last");
    ExpectFamilyMatchesMonolithic(mono, **family, "", "empty");
    ExpectFamilyMatchesMonolithic(mono, **family, "T", "maybe-missing");
  }
}

TEST(ShardedIndexTest, RejectsOverlongPatternsLoudly) {
  Rng rng(5);
  const std::string text = RandomDna(rng, 400);
  auto family = ShardedIndex::Build(Alphabet::Dna(), text,
                                    {.shards = 4, .max_pattern = 8});
  ASSERT_TRUE(family.ok());

  const std::string long_pattern = text.substr(10, 9);  // margin + 1
  for (const Query& query : AllKinds(long_pattern, 4)) {
    QueryResult result = (*family)->Execute(query);
    EXPECT_FALSE(result.ok()) << QueryKindName(query.kind);
    EXPECT_EQ(result.status_code, StatusCode::kInvalidArgument)
        << QueryKindName(query.kind);
    EXPECT_NE(result.error.find("max_pattern"), std::string::npos)
        << QueryKindName(query.kind);
    EXPECT_TRUE(result.hits.empty());
    EXPECT_TRUE(result.matching_stats.empty());
  }
  // Exactly the margin is admitted.
  QueryResult ok = (*family)->Execute(Query::FindAll(text.substr(10, 8)));
  EXPECT_TRUE(ok.ok()) << ok.error;
  EXPECT_TRUE(ok.found);
}

TEST(ShardedIndexTest, BuildValidatesOptions) {
  EXPECT_EQ(ShardedIndex::Build(Alphabet::Dna(), "ACGT", {.shards = 0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ShardedIndex::Build(Alphabet::Dna(), "ACGT",
                                {.shards = 2, .max_pattern = 0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedIndexTest, ParallelBuildMatchesSingleThreaded) {
  Rng rng(77);
  const std::string text = RandomDna(rng, 6'000);
  auto serial = ShardedIndex::Build(
      Alphabet::Dna(), text,
      {.shards = 4, .max_pattern = 24, .build_threads = 1});
  auto parallel = ShardedIndex::Build(
      Alphabet::Dna(), text,
      {.shards = 4, .max_pattern = 24, .build_threads = 4});
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  for (int i = 0; i < 20; ++i) {
    const std::string pattern =
        text.substr(rng.Below(text.size() - 24), 1 + rng.Below(24));
    for (const Query& query : AllKinds(pattern, 4)) {
      EXPECT_TRUE((*serial)->Execute(query).SameAnswer(
          (*parallel)->Execute(query)))
          << QueryKindName(query.kind) << " \"" << pattern << "\"";
    }
  }
}

TEST(ShardedIndexTest, SaveLoadRoundTripIsExact) {
  ScopedTempDir dir("shard_roundtrip");
  Rng rng(31);
  const std::string text = RandomProtein(rng, 3'000);
  auto built = ShardedIndex::Build(Alphabet::Protein(), text,
                                   {.shards = 3, .max_pattern = 20});
  ASSERT_TRUE(built.ok());
  const std::string path = dir.File("family.spinefam");
  ASSERT_TRUE((*built)->Save(path).ok());

  auto loaded = ShardedIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->kind(), core::IndexKind::kSharded);
  EXPECT_EQ((*loaded)->size(), text.size());
  EXPECT_EQ((*loaded)->shard_count(), (*built)->shard_count());
  EXPECT_EQ((*loaded)->max_pattern(), (*built)->max_pattern());
  EXPECT_EQ((*loaded)->alphabet().kind(), Alphabet::Kind::kProtein);
  EXPECT_TRUE((*loaded)->VerifyStructure().ok());

  for (int i = 0; i < 25; ++i) {
    const std::string pattern =
        text.substr(rng.Below(text.size() - 20), 1 + rng.Below(20));
    for (const Query& query : AllKinds(pattern, 4)) {
      QueryResult before = (*built)->Execute(query);
      QueryResult after = (*loaded)->Execute(query);
      ASSERT_TRUE(after.ok()) << after.error;
      EXPECT_TRUE(after.SameAnswer(before))
          << QueryKindName(query.kind) << " \"" << pattern << "\"";
    }
  }
}

// Flips one byte of `path` at `offset`, runs `fn`, restores the byte.
template <typename Fn>
void WithFlippedByte(const std::string& path, uint64_t offset, Fn fn) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  ASSERT_TRUE(f.good()) << path << " shorter than " << offset;
  const char flipped = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&flipped, 1);
  f.flush();
  ASSERT_TRUE(f.good());
  fn();
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
  f.flush();
}

TEST(ShardedIndexTest, DetectsAnySingleBitFlip) {
  ScopedTempDir dir("shard_bitflip");
  Rng rng(8);
  const std::string text = RandomDna(rng, 2'000);
  auto built = ShardedIndex::Build(Alphabet::Dna(), text,
                                   {.shards = 2, .max_pattern = 16});
  ASSERT_TRUE(built.ok());
  const std::string path = dir.File("family.spinefam");
  ASSERT_TRUE((*built)->Save(path).ok());
  ASSERT_TRUE(ShardedIndex::Load(path).ok());  // pristine baseline

  std::vector<std::string> files = {path, path + ".shard0", path + ".shard1"};
  for (const std::string& file : files) {
    std::ifstream probe(file, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(probe.good()) << file;
    const uint64_t size = static_cast<uint64_t>(probe.tellg());
    probe.close();
    // Sample offsets across the whole file, ends included.
    for (uint64_t offset :
         {uint64_t{4}, size / 4, size / 2, (3 * size) / 4, size - 1}) {
      WithFlippedByte(file, offset, [&] {
        auto corrupt = ShardedIndex::Load(path);
        EXPECT_FALSE(corrupt.ok())
            << file << " flipped at " << offset << " was not detected";
        if (!corrupt.ok()) {
          EXPECT_EQ(corrupt.status().code(), StatusCode::kCorruption)
              << file << " @ " << offset << ": "
              << corrupt.status().ToString();
        }
      });
    }
  }
  // Restored files load cleanly again.
  EXPECT_TRUE(ShardedIndex::Load(path).ok());

  // Truncation of the manifest and of a shard file are corruption too.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    spine::test::WriteFile(path, bytes.substr(0, bytes.size() / 2));
    auto truncated = ShardedIndex::Load(path);
    EXPECT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption);
    spine::test::WriteFile(path, bytes);
  }
  {
    const std::string shard_file = path + ".shard1";
    std::ifstream in(shard_file, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    spine::test::WriteFile(shard_file, bytes.substr(0, bytes.size() - 7));
    auto truncated = ShardedIndex::Load(path);
    EXPECT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption);
    spine::test::WriteFile(shard_file, bytes);
  }
  EXPECT_TRUE(ShardedIndex::Load(path).ok());

  // A missing shard file is an I/O error (the medium is absent, not
  // lying), still never a crash.
  ASSERT_EQ(std::remove((path + ".shard0").c_str()), 0);
  auto missing = ShardedIndex::Load(path);
  EXPECT_FALSE(missing.ok());
}

TEST(ShardedIndexTest, ManifestRejectsEscapingFilenames) {
  ScopedTempDir dir("shard_escape");
  Rng rng(4);
  const std::string text = RandomDna(rng, 500);
  auto built = ShardedIndex::Build(Alphabet::Dna(), text,
                                   {.shards = 2, .max_pattern = 8});
  ASSERT_TRUE(built.ok());
  const std::string path = dir.File("family.spinefam");
  ASSERT_TRUE((*built)->Save(path).ok());

  // Rewrite the manifest's first shard filename to point outside the
  // manifest's directory. The length stays equal so the layout (and
  // everything before the CRC footer) still parses; a correct loader
  // must reject it on the filename check or the checksum, never read
  // the traversal target.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const std::string original = "family.spinefam.shard0";
  const std::string escape = "../family.spinefam.sha";
  ASSERT_EQ(original.size(), escape.size());
  const size_t at = bytes.find(original);
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, original.size(), escape);
  spine::test::WriteFile(path, bytes);

  auto tampered = ShardedIndex::Load(path);
  EXPECT_FALSE(tampered.ok());
  EXPECT_EQ(tampered.status().code(), StatusCode::kCorruption);
}

// A fired token wins over whatever partial merge the walks left, for
// every query kind on both families: the answer is the token's verdict
// with no hits and no matching statistics. The dynamic family holds a
// frozen shard with a tombstoned document (a dirty source) and a
// memtable (a clean one), so both merge paths run.
TEST(ShardMergeTest, FiredTokenWinsForEveryKindOnBothFamilies) {
  Rng rng(4242);
  const std::string text = RandomDna(rng, 1500);
  auto sharded = ShardedIndex::Build(Alphabet::Dna(), text,
                                     {.shards = 3, .max_pattern = 64});
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  ScopedTempDir dir;
  auto dynamic = DynamicFamily::Create(dir.File("fam.spinefam"),
                                       Alphabet::Dna(), {});
  ASSERT_TRUE(dynamic.ok()) << dynamic.status().ToString();
  ASSERT_TRUE((*dynamic)->InsertDocument(text.substr(0, 500)).ok());
  ASSERT_TRUE((*dynamic)->InsertDocument(text.substr(500, 500)).ok());
  ASSERT_TRUE((*dynamic)->Flush().ok());
  ASSERT_TRUE((*dynamic)->DeleteDocument(0).ok());
  ASSERT_TRUE((*dynamic)->InsertDocument(text.substr(1000, 500)).ok());
  ASSERT_EQ((*dynamic)->frozen_shard_count(), 1u);
  ASSERT_EQ((*dynamic)->memtable_documents(), 1u);
  ASSERT_EQ((*dynamic)->tombstone_count(), 1u);

  // Occurs in the live frozen document, so every kind has a payload.
  const std::string pattern = text.substr(600, 14);
  const std::vector<Query> queries = {
      Query::Contains(pattern),
      Query::FindAll(pattern),
      Query::MatchingStats(pattern),
      Query::MaximalMatches(pattern, 4),
      Query::MaximalMatches(pattern, 4, /*expand=*/true),
      Query::Mismatch(pattern, 2),
      Query::EditDistance(pattern, 2)};
  const struct {
    const core::Index* index;
    const char* name;
  } families[] = {{sharded->get(), "sharded"}, {dynamic->get(), "dynamic"}};
  for (const auto& family : families) {
    for (const Query& query : queries) {
      const std::string tag = std::string(family.name) + ", kind " +
                              std::string(QueryKindName(query.kind));
      const QueryResult unbounded = family.index->Execute(query);
      ASSERT_TRUE(unbounded.ok()) << tag << ": " << unbounded.error;
      EXPECT_TRUE(unbounded.found) << tag;

      const CancelToken expired{Deadline::AfterMicros(0)};
      const QueryResult late = family.index->Execute(query, nullptr, &expired);
      EXPECT_EQ(late.status_code, StatusCode::kDeadlineExceeded) << tag;
      EXPECT_FALSE(late.found) << tag;
      EXPECT_TRUE(late.hits.empty()) << tag;
      EXPECT_TRUE(late.matching_stats.empty()) << tag;

      CancelToken cancelled;
      cancelled.Cancel();
      const QueryResult stopped =
          family.index->Execute(query, nullptr, &cancelled);
      EXPECT_EQ(stopped.status_code, StatusCode::kCancelled) << tag;
      EXPECT_FALSE(stopped.found) << tag;
      EXPECT_TRUE(stopped.hits.empty()) << tag;
      EXPECT_TRUE(stopped.matching_stats.empty()) << tag;
    }
  }
}

}  // namespace
}  // namespace spine::shard
