// Differential open-path suite (PR 8): every persistent backend kind,
// saved once and reopened through the registry under BOTH open paths
// (heap copy and zero-copy mmap), must produce *identical* result
// streams — answers, error verdicts and SearchStats work counters — on
// a mixed batch over all four query kinds, on DNA and protein corpora.
// mmap-noverify (checksum skipped at open) rides along: on an intact
// artifact it must be indistinguishable from mmap.
//
// The harness lives in backend_agreement.h (SavePersistentArtifacts /
// RunBatch / ExpectIdenticalResults) so the kernel-matrix CI job can
// run this suite once per forced comparison kernel.

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compact/generalized_compact.h"
#include "compact/serializer.h"
#include "core/index.h"
#include "core/registry.h"
#include "backend_agreement.h"
#include "test_util.h"

namespace spine::test {
namespace {

using core::BackendRegistry;
using core::OpenOptions;
using core::ParseOpenSpec;

struct Corpus {
  const char* name;
  Alphabet alphabet;
  std::string text;
};

std::vector<Corpus> TestCorpora() {
  Rng rng(20260808);
  std::vector<Corpus> corpora;
  corpora.push_back({"dna", Alphabet::Dna(), TestCorpus(20000, 7)});
  corpora.push_back({"protein", Alphabet::Protein(), RandomProtein(rng, 8000)});
  return corpora;
}

// The tentpole property: heap and mmap opens of the same artifact are
// observationally identical, per backend, per corpus, per query.
TEST(OpenPathDifferentialTest, HeapAndMmapAgreeOnEveryPersistentBackend) {
  for (const Corpus& corpus : TestCorpora()) {
    ScopedTempDir dir("open_path_" + std::string(corpus.name));
    std::vector<PersistentArtifact> artifacts;
    std::string error;
    ASSERT_TRUE(SavePersistentArtifacts(corpus.alphabet, corpus.text, dir,
                                        &artifacts, &error))
        << corpus.name << ": " << error;
    ASSERT_EQ(artifacts.size(), 5u);

    const std::vector<Query> queries = MixedQueries(corpus.text, 40);
    for (const PersistentArtifact& artifact : artifacts) {
      const std::string tag = std::string(corpus.name) + "/" + artifact.name;

      auto heap = BackendRegistry::Default().Open(artifact.path, {});
      ASSERT_TRUE(heap.ok()) << tag << ": " << heap.status().ToString();
      EXPECT_EQ((*heap)->open_mode(), "heap") << tag;
      const std::vector<QueryResult> heap_results =
          RunBatch(**heap, queries);

      for (const char* spec : {"mmap", "mmap-noverify"}) {
        Result<OpenOptions> options = ParseOpenSpec(spec);
        ASSERT_TRUE(options.ok());
        auto mapped = BackendRegistry::Default().Open(artifact.path, *options);
        ASSERT_TRUE(mapped.ok())
            << tag << "/" << spec << ": " << mapped.status().ToString();
        EXPECT_EQ((*mapped)->open_mode(), spec) << tag;
        EXPECT_EQ((*mapped)->kind(), (*heap)->kind()) << tag;
        EXPECT_EQ((*mapped)->size(), (*heap)->size()) << tag;
        ExpectIdenticalResults(heap_results, RunBatch(**mapped, queries),
                               queries, tag + "/" + spec);
        // Both paths reach the same clean structural verdict too.
        Status verify = (*mapped)->VerifyStructure();
        EXPECT_TRUE(verify.ok())
            << tag << "/" << spec << ": " << verify.ToString();
      }
    }
  }
}

// Both open paths must also agree with the ground truth, not merely
// with each other: the mmap-opened fleet joins the naive oracle in the
// standard agreement check.
TEST(OpenPathDifferentialTest, MmapBackendsAgreeWithOracle) {
  const std::string corpus = TestCorpus(15000, 11);
  ScopedTempDir dir;
  std::vector<PersistentArtifact> artifacts;
  std::string error;
  ASSERT_TRUE(SavePersistentArtifacts(Alphabet::Dna(), corpus, dir, &artifacts,
                                      &error))
      << error;

  core::NaiveTextAdapter oracle(Alphabet::Dna(), corpus);
  std::vector<std::unique_ptr<core::Index>> owned;
  std::vector<const core::Index*> indexes = {&oracle};
  Result<OpenOptions> mmap = ParseOpenSpec("mmap");
  ASSERT_TRUE(mmap.ok());
  for (const PersistentArtifact& artifact : artifacts) {
    auto opened = BackendRegistry::Default().Open(artifact.path, *mmap);
    ASSERT_TRUE(opened.ok())
        << artifact.name << ": " << opened.status().ToString();
    indexes.push_back(opened->get());
    owned.push_back(std::move(*opened));
  }
  ExpectAllBackendsAgree(indexes, MixedQueries(corpus, 40), "mmap-fleet");
}

// $SPINE_OPEN picks the registry's default open path; the CLI and the
// server inherit it. An index opened under it must report the spec.
TEST(OpenPathDifferentialTest, OpenModeIsReported) {
  const std::string corpus = TestCorpus(2000, 3);
  ScopedTempDir dir;
  CompactSpineIndex compact(Alphabet::Dna());
  ASSERT_TRUE(compact.AppendString(corpus).ok());
  ASSERT_TRUE(SaveCompactSpine(compact, dir.File("mode.spine")).ok());

  for (const char* spec : {"heap", "mmap", "mmap-noverify"}) {
    Result<OpenOptions> options = ParseOpenSpec(spec);
    ASSERT_TRUE(options.ok());
    auto opened =
        BackendRegistry::Default().Open(dir.File("mode.spine"), *options);
    ASSERT_TRUE(opened.ok()) << spec;
    EXPECT_EQ((*opened)->open_mode(), spec);
  }
  // Built-in-memory indexes have no open path at all.
  EXPECT_EQ(core::CompactSpineAdapter(compact).open_mode(), "built");
  EXPECT_FALSE(ParseOpenSpec("mmap-eager").ok());
  EXPECT_FALSE(ParseOpenSpec("").ok());
}

// OpenAs (--backend override) threads the open options exactly like
// the sniffing path.
TEST(OpenPathDifferentialTest, OpenAsHonorsOpenOptions) {
  const std::string corpus = TestCorpus(4000, 5);
  ScopedTempDir dir;
  CompactSpineIndex compact(Alphabet::Dna());
  ASSERT_TRUE(compact.AppendString(corpus).ok());
  ASSERT_TRUE(SaveCompactSpine(compact, dir.File("as.spine")).ok());

  Result<OpenOptions> mmap = ParseOpenSpec("mmap");
  ASSERT_TRUE(mmap.ok());
  auto opened = BackendRegistry::Default().OpenAs("compact",
                                                  dir.File("as.spine"), *mmap);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->open_mode(), "mmap");
  QueryResult result = (*opened)->Execute(Query::Contains(corpus.substr(9, 12)));
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.found);
}

// Negative paths: a truncated compact or generalized image is
// kCorruption under every open mode, and the message names the file.
TEST(OpenPathDifferentialTest, TruncatedImagesFailNamingThePath) {
  const std::string corpus = TestCorpus(3000, 13);
  ScopedTempDir dir;
  CompactSpineIndex compact(Alphabet::Dna());
  ASSERT_TRUE(compact.AppendString(corpus).ok());
  ASSERT_TRUE(SaveCompactSpine(compact, dir.File("full.spine")).ok());
  GeneralizedCompactSpine generalized(Alphabet::Dna());
  ASSERT_TRUE(generalized.AddString(corpus.substr(0, 1500), "a").ok());
  ASSERT_TRUE(generalized.AddString(corpus.substr(1500), "b").ok());
  ASSERT_TRUE(generalized.Save(dir.File("full.spineg")).ok());

  for (const char* name : {"spine", "spineg"}) {
    const std::string full = dir.File(std::string("full.") + name);
    const std::string truncated = dir.File(std::string("short.") + name);
    std::string bytes;
    {
      std::ifstream in(full, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    {
      std::ofstream out(truncated, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    }
    for (const char* spec : {"heap", "mmap"}) {
      Result<OpenOptions> options = ParseOpenSpec(spec);
      ASSERT_TRUE(options.ok());
      auto opened = BackendRegistry::Default().Open(truncated, *options);
      ASSERT_FALSE(opened.ok()) << name << "/" << spec;
      EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
          << name << "/" << spec;
      EXPECT_NE(opened.status().message().find(truncated), std::string::npos)
          << name << "/" << spec << ": " << opened.status().ToString();
    }
  }
}

}  // namespace
}  // namespace spine::test
