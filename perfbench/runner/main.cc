// spine_perfbench: the measuring half of the repository benchmark
// (run.py is the other half: it builds this runner, runs it and turns
// its output into metrics).
//
//   spine_perfbench --workload W --seed N --seconds S --trace 0|1
//                   --workdir DIR --out FILE [--cpus N]
//   spine_perfbench --workload W --seed N --seconds S --inputs-hash
//
// --trace 0 runs one untraced phase of S seconds with set-up repeated
// three times. --trace 1 runs an untraced and then a traced phase of
// S/2 seconds each (one set-up apiece); run.py takes the per-layer
// numbers from the pair and reports the traced-minus-untraced
// difference of every end-to-end metric as the tracing overhead.
//
// Before any phase the runner regenerates the inputs from scratch for
// the same seed and for the next seed and checks that the first digest
// matches and the second differs.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "runner/inputs.h"
#include "runner/workloads.h"

namespace {

using perfbench::Inputs;

int Usage() {
  std::fprintf(stderr,
               "usage: spine_perfbench --workload W --seed N --seconds S "
               "(--trace 0|1 --workdir DIR --out FILE [--cpus N] | "
               "--inputs-hash)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir, out;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool hash_only = false;
  uint32_t cpus = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--inputs-hash") {
      hash_only = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--workdir") {
      workdir = argv[++i];
    } else if (arg == "--out") {
      out = argv[++i];
    } else if (arg == "--cpus") {
      cpus = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else {
      return Usage();
    }
  }
  if (!perfbench::KnownWorkload(workload) || seconds <= 0) return Usage();

  const double phase_seconds = trace == 1 ? seconds / 2 : seconds;
  const uint64_t schedule_len = perfbench::ServeScheduleLength(phase_seconds);
  try {
    const Inputs inputs = perfbench::MakeInputs(workload, seed, schedule_len);
    const std::string hash = perfbench::InputHash(inputs);
    if (hash_only) {
      std::printf("%s\n", hash.c_str());
      return 0;
    }
    if (trace < 0 || trace > 1 || workdir.empty() || out.empty()) {
      return Usage();
    }
    const std::string again = perfbench::InputHash(
        perfbench::MakeInputs(workload, seed, schedule_len));
    const std::string other = perfbench::InputHash(
        perfbench::MakeInputs(workload, seed + 1, schedule_len));
    if (again != hash || other == hash) {
      std::fprintf(stderr,
                   "determinism check failed: seed %llu gave %s then %s, "
                   "seed %llu gave %s\n",
                   static_cast<unsigned long long>(seed), hash.c_str(),
                   again.c_str(), static_cast<unsigned long long>(seed + 1),
                   other.c_str());
      return 3;
    }

    const perfbench::Clock::time_point epoch = perfbench::Clock::now();
    std::vector<perfbench::PhaseResult> phases;
    for (int traced = 0; traced <= trace; ++traced) {
      perfbench::PhaseConfig config;
      config.seconds = phase_seconds;
      config.traced = traced == 1;
      config.workdir = workdir;
      config.setup_reps = trace == 1 ? 1 : 3;
      config.cpu_budget = std::min<uint32_t>(cpus, 4);
      if (workload == "serve-skewed") {
        phases.push_back(perfbench::RunServeSkewed(inputs, config));
      } else if (workload == "ingest") {
        phases.push_back(perfbench::RunIngest(inputs, config));
      } else {
        phases.push_back(perfbench::RunClosedLoop(inputs, config));
      }
    }
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    file << perfbench::ResultsToJson(workload, seed, hash, phases, epoch);
    if (!file.good()) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spine_perfbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
