// shard::DynamicFamily unit tests: lifecycle basics (create / open /
// insert / delete / flush / compact / reload), durability and volatile
// state, manifest-v2 registry routing, generation identity (cache_id /
// PinSnapshot), background triggers, and input validation. The
// exhaustive mutation-vs-oracle interleavings, fault schedules and
// concurrency races live in tests/lifecycle_differential_test.cc.

#include "shard/dynamic_family.h"

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/generalized_spine.h"
#include "core/query.h"
#include "core/registry.h"
#include "test_util.h"

namespace spine::shard {
namespace {

using spine::test::RandomDna;
using spine::test::ScopedTempDir;

std::vector<Query> AllKinds(const std::string& pattern, uint32_t min_len) {
  return {Query::Contains(pattern), Query::FindAll(pattern),
          Query::MatchingStats(pattern),
          Query::MaximalMatches(pattern, min_len),
          Query::MaximalMatches(pattern, min_len, /*expand=*/true)};
}

// The oracle from the class contract: a GeneralizedSpineIndex rebuilt
// from scratch over `docs` in order, answering through ExecuteQuery on
// its underlying index.
void ExpectAnswersMatchDocs(const DynamicFamily& family,
                            const std::vector<std::string>& docs,
                            const std::string& pattern,
                            const std::string& label) {
  GeneralizedSpineIndex oracle(family.alphabet());
  for (const std::string& doc : docs) ASSERT_TRUE(oracle.AddString(doc).ok());
  for (const Query& query : AllKinds(pattern, 3)) {
    QueryResult expected = ExecuteQuery(oracle.underlying(), query);
    QueryResult got = family.Execute(query);
    EXPECT_TRUE(got.SameAnswer(expected))
        << label << ", kind " << QueryKindName(query.kind) << ", pattern \""
        << pattern << "\": " << got.error;
  }
}

DynamicFamily::Options HeapOptions() { return DynamicFamily::Options{}; }

TEST(DynamicFamilyTest, CreateInsertQueryAccessors) {
  ScopedTempDir dir;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok()) << family.status().ToString();
  EXPECT_EQ((*family)->kind(), core::IndexKind::kDynamic);
  EXPECT_EQ((*family)->live_documents(), 0u);
  EXPECT_EQ((*family)->size(), 0u);

  auto id0 = (*family)->InsertDocument("ACGTACGT");
  auto id1 = (*family)->InsertDocument("TTTTGGGG");
  ASSERT_TRUE(id0.ok() && id1.ok());
  EXPECT_EQ(*id0, 0u);
  EXPECT_EQ(*id1, 1u);
  EXPECT_EQ((*family)->next_doc_id(), 2u);
  EXPECT_EQ((*family)->live_documents(), 2u);
  EXPECT_EQ((*family)->memtable_documents(), 2u);
  EXPECT_EQ((*family)->frozen_shard_count(), 0u);

  for (const char* pattern : {"ACGT", "TTTT", "GTAC", "CCCC", ""}) {
    ExpectAnswersMatchDocs(**family, {"ACGTACGT", "TTTTGGGG"}, pattern,
                           "memtable");
  }
  EXPECT_TRUE((*family)->VerifyStructure().ok());
}

TEST(DynamicFamilyTest, CreateFailsOnExistingPath) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  auto first = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(first.ok());
  auto second = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DynamicFamilyTest, RejectsInvalidDocumentsAndPatterns) {
  ScopedTempDir dir;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok());
  ASSERT_TRUE((*family)->InsertDocument("ACGT").ok());

  // Reserved separator bytes and out-of-alphabet characters never
  // enter the collection.
  EXPECT_EQ((*family)->InsertDocument("AC\x1fGT").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*family)->InsertDocument("AC\nGT").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*family)->InsertDocument("ACXT").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*family)->live_documents(), 1u);

  // Patterns carrying a separator could match across document
  // boundaries; they are refused loudly, in every query kind.
  const std::vector<std::string> bad_patterns = {std::string("A\x1f") + "C",
                                                 std::string("A\nC")};
  for (const std::string& pattern : bad_patterns) {
    for (const Query& query : AllKinds(pattern, 1)) {
      QueryResult result = (*family)->Execute(query);
      EXPECT_EQ(result.status_code, StatusCode::kInvalidArgument)
          << QueryKindName(query.kind);
    }
  }
}

TEST(DynamicFamilyTest, DeleteMasksImmediatelyAndReportsNotFoundTwice) {
  ScopedTempDir dir;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok());
  ASSERT_TRUE((*family)->InsertDocument("ACGTACGT").ok());
  ASSERT_TRUE((*family)->InsertDocument("GGGGCCCC").ok());
  ASSERT_TRUE((*family)->Flush().ok());       // both frozen
  ASSERT_TRUE((*family)->InsertDocument("TTTTAAAA").ok());  // memtable

  // Frozen delete.
  ASSERT_TRUE((*family)->DeleteDocument(0).ok());
  EXPECT_EQ((*family)->live_documents(), 2u);
  EXPECT_EQ((*family)->tombstone_count(), 1u);
  ExpectAnswersMatchDocs(**family, {"GGGGCCCC", "TTTTAAAA"}, "ACGT",
                         "frozen delete");
  // Memtable delete.
  ASSERT_TRUE((*family)->DeleteDocument(2).ok());
  ExpectAnswersMatchDocs(**family, {"GGGGCCCC"}, "TTTT", "memtable delete");

  EXPECT_EQ((*family)->DeleteDocument(0).code(), StatusCode::kNotFound);
  EXPECT_EQ((*family)->DeleteDocument(99).code(), StatusCode::kNotFound);
}

TEST(DynamicFamilyTest, FlushIsTheDurabilityPoint) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  {
    auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
    ASSERT_TRUE(family.ok());
    ASSERT_TRUE((*family)->InsertDocument("ACGTACGTAC").ok());
    ASSERT_TRUE((*family)->Flush().ok());
    ASSERT_TRUE((*family)->InsertDocument("GGGGGGGG").ok());  // volatile
  }
  auto reopened = DynamicFamily::Open(path, HeapOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->live_documents(), 1u);
  // The watermark reverts to the flushed manifest's value: the
  // discarded volatile document's id is free for reuse, since that
  // document never existed durably.
  EXPECT_EQ((*reopened)->next_doc_id(), 1u);
  ExpectAnswersMatchDocs(**reopened, {"ACGTACGTAC"}, "ACGT", "reopen");
  ExpectAnswersMatchDocs(**reopened, {"ACGTACGTAC"}, "GGGG", "reopen miss");
}

TEST(DynamicFamilyTest, DurableTombstoneSurvivesReopen) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  {
    auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
    ASSERT_TRUE(family.ok());
    ASSERT_TRUE((*family)->InsertDocument("ACGTACGT").ok());
    ASSERT_TRUE((*family)->InsertDocument("GGGGCCCC").ok());
    ASSERT_TRUE((*family)->Flush().ok());
    // Deleting a frozen document commits the manifest at delete time —
    // no flush needed for the tombstone to survive.
    ASSERT_TRUE((*family)->DeleteDocument(0).ok());
  }
  auto reopened = DynamicFamily::Open(path, HeapOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->live_documents(), 1u);
  EXPECT_EQ((*reopened)->tombstone_count(), 1u);
  ExpectAnswersMatchDocs(**reopened, {"GGGGCCCC"}, "ACGT", "tombstone");
}

TEST(DynamicFamilyTest, CompactMergesShardsDropsTombstonesAndDeadFiles) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok());
  const std::vector<std::string> docs = {"ACGTACGTAC", "GGGGCCCCGG",
                                         "TTTTAAAATT"};
  for (const std::string& doc : docs) {
    ASSERT_TRUE((*family)->InsertDocument(doc).ok());
    ASSERT_TRUE((*family)->Flush().ok());  // one shard per document
  }
  ASSERT_EQ((*family)->frozen_shard_count(), 3u);
  ASSERT_TRUE((*family)->DeleteDocument(1).ok());
  ASSERT_EQ((*family)->tombstone_count(), 1u);

  ASSERT_TRUE((*family)->Compact().ok());
  EXPECT_EQ((*family)->frozen_shard_count(), 1u);
  EXPECT_EQ((*family)->tombstone_count(), 0u);
  EXPECT_EQ((*family)->live_documents(), 2u);
  ExpectAnswersMatchDocs(**family, {"ACGTACGTAC", "TTTTAAAATT"}, "ACGT",
                         "compacted");
  EXPECT_TRUE((*family)->VerifyStructure().ok());

  // Exactly the manifest and the one live image remain on disk.
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    ++files;
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name == "fam.spinefam" ||
                name == "fam.spinefam.g" +
                            std::to_string((*family)->generation_version()))
        << "stray file " << name;
  }
  EXPECT_EQ(files, 2u);
}

TEST(DynamicFamilyTest, ReloadDiscardsVolatileState) {
  ScopedTempDir dir;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok());
  ASSERT_TRUE((*family)->InsertDocument("ACGTACGT").ok());
  ASSERT_TRUE((*family)->Flush().ok());
  ASSERT_TRUE((*family)->InsertDocument("GGGGCCCC").ok());  // volatile
  const uint64_t before = (*family)->generation_version();

  ASSERT_TRUE((*family)->Reload().ok());
  EXPECT_EQ((*family)->live_documents(), 1u);
  EXPECT_EQ((*family)->memtable_documents(), 0u);
  EXPECT_GT((*family)->generation_version(), before);  // stays monotone
  ExpectAnswersMatchDocs(**family, {"ACGTACGT"}, "GGGG", "post-reload");
}

TEST(DynamicFamilyTest, GenerationVersionAndCacheIdAdvanceOnEveryMutation) {
  ScopedTempDir dir;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok());
  uint64_t version = (*family)->generation_version();
  uint64_t cache_id = (*family)->cache_id();
  const auto expect_advanced = [&](const char* what) {
    EXPECT_GT((*family)->generation_version(), version) << what;
    EXPECT_NE((*family)->cache_id(), cache_id) << what;
    version = (*family)->generation_version();
    cache_id = (*family)->cache_id();
  };
  ASSERT_TRUE((*family)->InsertDocument("ACGTACGT").ok());
  expect_advanced("insert");
  ASSERT_TRUE((*family)->Flush().ok());
  expect_advanced("flush");
  ASSERT_TRUE((*family)->DeleteDocument(0).ok());
  expect_advanced("delete");
}

TEST(DynamicFamilyTest, PinnedSnapshotIsImmuneToLaterMutations) {
  ScopedTempDir dir;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), HeapOptions());
  ASSERT_TRUE(family.ok());
  ASSERT_TRUE((*family)->InsertDocument("ACGTACGT").ok());

  std::shared_ptr<const core::Index> snapshot = (*family)->PinSnapshot();
  ASSERT_NE(snapshot, nullptr);
  const uint64_t pinned_cache_id = snapshot->cache_id();
  const QueryResult before = snapshot->Execute(Query::FindAll("ACGT"));

  ASSERT_TRUE((*family)->DeleteDocument(0).ok());
  ASSERT_TRUE((*family)->InsertDocument("GGGGGGGG").ok());

  // The snapshot still answers from its generation, under its cache id.
  const QueryResult after = snapshot->Execute(Query::FindAll("ACGT"));
  EXPECT_TRUE(after.SameAnswer(before));
  EXPECT_EQ(after.hits.size(), 2u);
  EXPECT_EQ(snapshot->cache_id(), pinned_cache_id);
  EXPECT_NE((*family)->cache_id(), pinned_cache_id);
  // The family itself sees the new state.
  EXPECT_FALSE((*family)->Execute(Query::Contains("ACGT")).found);
}

TEST(DynamicFamilyTest, RegistrySniffsManifestV2ToDynamicBackend) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  {
    auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
    ASSERT_TRUE(family.ok());
    ASSERT_TRUE((*family)->InsertDocument("ACGTACGTAC").ok());
    ASSERT_TRUE((*family)->Flush().ok());
  }
  core::OpenOptions open;
  auto index = core::BackendRegistry::Default().Open(path, open);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->kind(), core::IndexKind::kDynamic);
  EXPECT_TRUE((*index)->Execute(Query::Contains("GTAC")).found);
  EXPECT_TRUE((*index)->VerifyStructure().ok());
}

TEST(DynamicFamilyTest, MmapOpenAgreesWithHeapOpen) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  Rng rng(99);
  std::vector<std::string> docs;
  {
    auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
    ASSERT_TRUE(family.ok());
    for (int i = 0; i < 3; ++i) {
      docs.push_back(RandomDna(rng, 200));
      ASSERT_TRUE((*family)->InsertDocument(docs.back()).ok());
      ASSERT_TRUE((*family)->Flush().ok());
    }
  }
  DynamicFamily::Options mmap_options;
  mmap_options.open.mode = core::OpenMode::kMmap;
  auto mapped = DynamicFamily::Open(path, mmap_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  for (int i = 0; i < 10; ++i) {
    const std::string& doc = docs[rng.Below(docs.size())];
    const std::string pattern = doc.substr(rng.Below(doc.size() - 8), 8);
    ExpectAnswersMatchDocs(**mapped, docs, pattern, "mmap open");
  }
  EXPECT_TRUE((*mapped)->VerifyStructure().ok());
}

// A heap reopen owns its frozen shards' tables, so MemoryBytes counts
// them; an mmap reopen borrows them from the page cache and does not.
TEST(DynamicFamilyTest, HeapReopenCountsFrozenTablesInMemoryBytes) {
  ScopedTempDir dir;
  const std::string path = dir.File("fam.spinefam");
  Rng rng(64);
  uint64_t chars = 0;
  {
    auto family = DynamicFamily::Create(path, Alphabet::Dna(), HeapOptions());
    ASSERT_TRUE(family.ok());
    for (int i = 0; i < 8; ++i) {
      const std::string doc = RandomDna(rng, 1024);
      chars += doc.size();
      ASSERT_TRUE((*family)->InsertDocument(doc).ok());
    }
    ASSERT_TRUE((*family)->Flush().ok());
  }
  auto heap = DynamicFamily::Open(path, HeapOptions());
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  DynamicFamily::Options mmap_options;
  mmap_options.open.mode = core::OpenMode::kMmap;
  auto mapped = DynamicFamily::Open(path, mmap_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ((*heap)->frozen_shard_count(), 1u);
  // The Link Table alone is 6 bytes per character.
  EXPECT_GT((*heap)->MemoryBytes(), (*mapped)->MemoryBytes() + 6 * chars);
}

TEST(DynamicFamilyTest, BackgroundTriggersFlushAndCompactOnTheirOwn) {
  ScopedTempDir dir;
  DynamicFamily::Options options;
  options.flush_threshold_bytes = 64;
  options.compact_fanout = 2;
  auto family = DynamicFamily::Create(dir.File("fam.spinefam"),
                                      Alphabet::Dna(), options);
  ASSERT_TRUE(family.ok());
  Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*family)->InsertDocument(RandomDna(rng, 48)).ok());
  }
  // The background thread owes us at least one flush (8 * 48 bytes
  // against a 64-byte threshold); the tail of the memtable may stay
  // below the threshold and is legitimately still volatile. Poll with
  // a deadline, no sleep-based synchronization.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((*family)->frozen_shard_count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE((*family)->frozen_shard_count(), 1u) << "background flush stuck";
  EXPECT_TRUE((*family)->TakeBackgroundError().ok());
  EXPECT_EQ((*family)->live_documents(), 8u);
  EXPECT_TRUE((*family)->VerifyStructure().ok());
}

}  // namespace
}  // namespace spine::shard
