// Seeded input generation for the four workloads.
//
// Everything a workload feeds the program is a pure function of the
// workload seed: the corpus, every query (query i of a stream is
// derived from (seed, i), so a closed loop of any length asks the same
// sequence), the Zipf request schedule and the ingested documents. The
// program receives only these generated inputs.
//
// InputHash digests the corpus plus a fixed prefix of every stream;
// the runner recomputes it from scratch for the same seed and for the
// next seed on every run (same seed: identical, other seed: different).

#ifndef PERFBENCH_RUNNER_INPUTS_H_
#define PERFBENCH_RUNNER_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"

namespace perfbench {

// --- Workload shapes -------------------------------------------------------
// The constants below are the workload shapes recorded in
// perfbench/WORKLOADS.md; change both together.

// read-mapping: reads against a repeat-rich genome.
inline constexpr uint64_t kReadMappingChars = 2'000'000;
// occurrence-search: a smaller genome, so Theta(n) queries still give
// more than a thousand latency samples per run.
inline constexpr uint64_t kOccurrenceChars = 512 * 1024;
// serve-skewed: the genome behind the 4-shard family.
inline constexpr uint64_t kServeChars = 2'000'000;
inline constexpr uint32_t kServeShards = 4;
inline constexpr uint32_t kServeDistinct = 16384;
inline constexpr double kServeZipfS = 1.0;
// ingest: fixed-size documents.
inline constexpr uint32_t kIngestDocChars = 2048;

// One planted repeat family of the occurrence-search genome.
struct RepeatFamily {
  std::string consensus;
  uint32_t copies = 0;
};

struct Inputs {
  std::string workload;
  uint64_t seed = 0;
  std::string corpus;                  // static workloads
  std::vector<RepeatFamily> families;  // occurrence-search
  std::vector<spine::Query> distinct;  // serve-skewed query set
  std::vector<uint32_t> schedule;      // serve-skewed: ranks, in send order
};

bool KnownWorkload(const std::string& workload);

// Builds the inputs of `workload` for `seed`. `schedule_len` is the
// number of serve-skewed requests to draw (ignored elsewhere).
Inputs MakeInputs(const std::string& workload, uint64_t seed,
                  uint64_t schedule_len);

// Query `i` of a closed-loop stream (read-mapping, occurrence-search).
spine::Query StreamQuery(const Inputs& inputs, uint64_t i);

// Text of ingested document `j`.
std::string IngestDocument(uint64_t seed, uint64_t j);

// Hex digest of the inputs (corpus, families, serve set and schedule,
// the first 4096 stream queries, the first 64 documents).
std::string InputHash(const Inputs& inputs);

// Deterministic per-(seed, stream, index) sub-seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_INPUTS_H_
