// Shared plumbing of the benchmark runner: clocks, the span tracer,
// per-phase result records and their JSON form, registry deltas.
//
// The runner measures; run.py turns what it records into metrics. A
// phase writes raw samples (latency lists, setup repetitions), scalar
// values (counts, sizes), histogram deltas of the program's own
// obs::Registry, and — when traced — spans, so that percentiles,
// self times and coverage are computed in one place (run.py) and
// covered by its tests.

#ifndef PERFBENCH_RUNNER_COMMON_H_
#define PERFBENCH_RUNNER_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// One timed interval around a call into a layer. `parent` is the id of
// the enclosing span (-1 for a root); all spans of one request share
// `request`.
struct Span {
  const char* name = nullptr;
  uint64_t request = 0;
  int64_t parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

// Spans of one thread, kept in memory until the phase ends. A disabled
// tracer records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span of this tracer.
  int64_t Begin(const char* name, uint64_t request);
  void End(int64_t id);
  // Records an already-measured interval under the innermost open span.
  void Add(const char* name, uint64_t request, Clock::time_point start,
           Clock::time_point end);
  // Records an already-measured interval under `parent` (-1: a root);
  // returns its id, or -1 when disabled.
  int64_t AddUnder(int64_t parent, const char* name, uint64_t request,
                   Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) id_ = tracer_->Begin(name, request);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_ = -1;
};

// What one phase (one untraced or traced pass over a workload) hands
// to run.py.
struct PhaseResult {
  bool traced = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors, shed, deadline (not wrong answers)
  uint64_t wrong = 0;   // answers that disagree with the oracle/model
  uint64_t checked = 0; // answers compared against the oracle/model
  std::vector<std::string> errors;  // first few failure messages
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::string> info;
  std::map<std::string, spine::obs::MetricsSnapshot::HistogramValue>
      histograms;
  std::vector<Span> spans;

  void Error(const std::string& message);
  // Moves a thread's spans in, rebasing their parent ids.
  void TakeSpans(const Tracer& tracer);
};

// Thread-safe collection of failure messages and counters shared by
// the load threads of one phase.
class FailureLog {
 public:
  void Fail(const std::string& message);
  void Wrong(const std::string& message);
  void MergeInto(PhaseResult* result);

 private:
  std::mutex mu_;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
  std::vector<std::string> messages_;
};

// Adds every counter delta (as values "reg.<name>") and histogram delta
// (as histograms "<name>") between two registry snapshots.
void AddRegistryDelta(const spine::obs::MetricsSnapshot& before,
                      const spine::obs::MetricsSnapshot& after,
                      PhaseResult* result);

// Minor page faults of this process so far (getrusage).
uint64_t MinorFaults();

// Name of the active comparison-kernel level.
std::string KernelDispatchName();

// Serializes the runner's output document: input identity plus every
// phase, spans relative to `epoch`.
std::string ResultsToJson(const std::string& workload, uint64_t seed,
                          const std::string& input_hash,
                          const std::vector<PhaseResult>& phases,
                          Clock::time_point epoch);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_COMMON_H_
