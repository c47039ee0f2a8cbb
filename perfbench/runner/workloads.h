// The four workloads. Each runs one phase — set-up, a measured load
// loop of `seconds`, then the answer check — and returns what it
// recorded. With `traced` set, the load loop also wraps every call it
// makes into a layer in a span (runner/common.h).

#ifndef PERFBENCH_RUNNER_WORKLOADS_H_
#define PERFBENCH_RUNNER_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "runner/common.h"
#include "runner/inputs.h"

namespace perfbench {

struct PhaseConfig {
  double seconds = 10;
  bool traced = false;
  // Scratch directory for artifacts (inside the benchmark checkout).
  std::string workdir;
  // How many times set-up is repeated; setup_s is their median.
  uint32_t setup_reps = 3;
  // Load and engine threads together stay within this (nproc).
  uint32_t cpu_budget = 4;
};

// read-mapping and occurrence-search.
PhaseResult RunClosedLoop(const Inputs& inputs, const PhaseConfig& config);
PhaseResult RunServeSkewed(const Inputs& inputs, const PhaseConfig& config);
PhaseResult RunIngest(const Inputs& inputs, const PhaseConfig& config);

// Closed loops run the first kWarmShare of their time unmeasured, then
// keep their latency samples in kLatencyWindows equal windows of the
// rest; run.py reports medians over the windows.
inline constexpr double kWarmShare = 0.1;
inline constexpr size_t kLatencyWindows = 5;

// serve-skewed ladder: offered rates (requests/s). A warm-up of
// kWarmShare at the lowest rate fills the result cache and is not
// measured. The lowest rung is the reference load whose p50 is
// reported: a few percent of the server's capacity, so that other
// tenants of a shared host taking CPU time from it do not queue its
// requests (at 20,000/s, p50 rose 2-25 fold in such runs; at 5,000/s
// it moved by 2%). It runs for kReferenceShare of the phase. The rungs above
// share the rest in equal steps, closing in on the knee
// (75,000-90,000/s on a 4-vCPU x86 VM) in ~10% steps; the top rungs
// overload the server.
inline constexpr double kServeRates[] = {5000,  20000, 40000, 55000, 62000,
                                         69000, 76000, 84000, 92000};
inline constexpr double kReferenceShare = 0.3;
// Number of serve-skewed requests a phase of `seconds` schedules.
uint64_t ServeScheduleLength(double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_WORKLOADS_H_
