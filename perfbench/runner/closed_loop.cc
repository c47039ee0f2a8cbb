// read-mapping and occurrence-search: a closed loop of QueryEngine
// batches against one compact SPINE image reopened (mmap) through the
// backend registry.
//
// Each client thread takes the next queries of the seeded stream, hands
// them to the shared engine as one batch (64 queries for read-mapping,
// one for occurrence-search) and waits for the answers, so a query's
// latency is its batch call's wall time. The result cache is off and
// every query is distinct.
//
// Traced phase: after the engine call, the client replays the same
// query through the layers' public functions on the opened backend —
// GenericFindFirstEnd, GenericFindAll, the matcher, PlanApprox, the
// seed pieces and the approximate search — each call in its own span.

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "alphabet/alphabet.h"
#include "compact/compact_spine.h"
#include "compact/serializer.h"
#include "core/adapters.h"
#include "core/approx.h"
#include "core/matcher.h"
#include "core/registry.h"
#include "core/search.h"
#include "runner/workloads.h"
#include "engine/query_engine.h"
#include "plan/planner.h"

namespace perfbench {
namespace {

using spine::Query;
using spine::QueryKind;
using spine::QueryResult;

std::unique_ptr<spine::core::Index> SetUp(const std::string& corpus,
                                          const std::string& path,
                                          PhaseResult* result) {
  const Clock::time_point t0 = Clock::now();
  spine::CompactSpineIndex built(spine::Alphabet::Dna());
  spine::Status status = built.AppendString(corpus);
  if (!status.ok()) throw std::runtime_error("build: " + status.ToString());
  const Clock::time_point t1 = Clock::now();
  status = spine::SaveCompactSpine(built, path);
  if (!status.ok()) throw std::runtime_error("save: " + status.ToString());
  const Clock::time_point t2 = Clock::now();
  spine::core::OpenOptions open;
  open.mode = spine::core::OpenMode::kMmap;
  auto opened = spine::core::BackendRegistry::Default().Open(path, open);
  if (!opened.ok()) {
    throw std::runtime_error("open: " + opened.status().ToString());
  }
  const Clock::time_point t3 = Clock::now();
  // The reopened index borrows its tables from the mapping, which
  // MemoryBytes() leaves out; the image as built holds the same tables.
  result->values["bytes_per_char"] = static_cast<double>(built.MemoryBytes()) /
                                     static_cast<double>(built.size());
  result->samples["setup_s"].push_back(SecondsBetween(t0, t3));
  result->samples["compact.build_s"].push_back(SecondsBetween(t0, t1));
  result->samples["compact.save_s"].push_back(SecondsBetween(t1, t2));
  result->samples["compact.open_s"].push_back(SecondsBetween(t2, t3));
  return std::move(opened).value();
}

// Work facts gathered by the traced replay (summed over clients).
struct ReplayCounts {
  uint64_t findall = 0;
  uint64_t occurrences = 0;
  uint64_t scanned = 0;  // backbone nodes above each first end
  uint64_t approx = 0;
  uint64_t seeded = 0;
  uint64_t seed_len = 0;
  uint64_t candidates = 0;
  uint64_t verified = 0;

  void Add(const ReplayCounts& o) {
    findall += o.findall;
    occurrences += o.occurrences;
    scanned += o.scanned;
    approx += o.approx;
    seeded += o.seeded;
    seed_len += o.seed_len;
    candidates += o.candidates;
    verified += o.verified;
  }
};

void Replay(const spine::CompactSpineIndex& backend, const Query& q,
            uint64_t request, Tracer* tracer, ReplayCounts* counts) {
  switch (q.kind) {
    case QueryKind::kContains: {
      ScopedSpan span(tracer, "core.locate", request);
      (void)spine::GenericFindFirstEnd(backend, q.pattern);
      break;
    }
    case QueryKind::kFindAll: {
      std::optional<spine::NodeId> first;
      {
        ScopedSpan span(tracer, "core.locate", request);
        first = spine::GenericFindFirstEnd(backend, q.pattern);
      }
      size_t occ = 0;
      {
        ScopedSpan span(tracer, "core.findall", request);
        occ = spine::GenericFindAll(backend, q.pattern).size();
      }
      ++counts->findall;
      counts->occurrences += occ;
      if (first.has_value()) counts->scanned += backend.size() - *first;
      break;
    }
    case QueryKind::kMaximalMatches: {
      ScopedSpan span(tracer, "core.matcher", request);
      (void)spine::GenericFindMaximalMatches(backend, q.pattern, q.min_len);
      break;
    }
    case QueryKind::kMatchingStats: {
      ScopedSpan span(tracer, "core.matcher", request);
      (void)spine::GenericMatchingStatistics(backend, q.pattern);
      break;
    }
    case QueryKind::kMismatch:
    case QueryKind::kEditDistance: {
      const uint32_t m = static_cast<uint32_t>(q.pattern.size());
      spine::plan::ApproxPlan plan;
      {
        ScopedSpan span(tracer, "plan", request);
        plan = spine::plan::PlanApprox(backend.size(),
                                       backend.alphabet().size(), m,
                                       q.max_errors, true);
      }
      if (plan.use_seeds) {
        ScopedSpan span(tracer, "approx.seed_locate", request);
        for (uint32_t piece = 0; piece < plan.piece_count; ++piece) {
          const auto [begin, end] =
              spine::plan::SeedBoundaries(m, plan.piece_count, piece);
          (void)spine::GenericFindAll(
              backend, std::string_view(q.pattern).substr(begin, end - begin));
        }
      }
      spine::ApproxSearchStats stats;
      {
        ScopedSpan span(tracer, "approx.query", request);
        if (q.kind == QueryKind::kMismatch) {
          (void)spine::GenericFindMismatch(backend, q.pattern, q.max_errors,
                                           nullptr, &stats);
        } else {
          (void)spine::GenericFindEditDistance(backend, q.pattern,
                                               q.max_errors, nullptr, &stats);
        }
      }
      ++counts->approx;
      if (plan.use_seeds) {
        ++counts->seeded;
        counts->seed_len += plan.seed_len;
      }
      counts->candidates += stats.candidates;
      counts->verified += stats.verified;
      break;
    }
  }
}

struct Client {
  explicit Client(bool traced) : tracer(traced) {}
  Tracer tracer;
  // One latency sample per batch (every query of a batch has the
  // batch's latency), by measurement window.
  std::vector<double> latency_ms[kLatencyWindows];
  ReplayCounts counts;
};

// Answers checked against the brute-force oracle: the first queries of
// the stream (the loop always reaches them).
uint64_t CheckSample(const std::string& workload) {
  return workload == "read-mapping" ? 12 : 48;
}

// Queries per engine batch. read-mapping's queries take microseconds:
// a read mapper submits its reads in chunks, and small batches would
// mostly time the pool waking its idle workers (milliseconds, at times,
// on a shared virtual host). The millisecond queries of
// occurrence-search go one at a time.
uint64_t BatchSize(const std::string& workload) {
  return workload == "read-mapping" ? 64 : 1;
}

}  // namespace

PhaseResult RunClosedLoop(const Inputs& inputs, const PhaseConfig& config) {
  PhaseResult result;
  result.traced = config.traced;
  std::unique_ptr<spine::core::Index> index;
  for (uint32_t rep = 0; rep < config.setup_reps; ++rep) {
    index = nullptr;  // unmap before the file is rewritten
    index = SetUp(inputs.corpus, config.workdir + "/corpus.spine", &result);
  }
  const auto* adapter =
      dynamic_cast<const spine::core::CompactSpineAdapter*>(index.get());
  if (adapter == nullptr) throw std::runtime_error("unexpected backend");
  const spine::CompactSpineIndex& backend = adapter->backend();

  // As many engine workers as client threads, together within budget.
  const uint32_t clients = std::max<uint32_t>(1, config.cpu_budget / 2);
  spine::engine::QueryEngine::Options options;
  options.threads = clients;
  options.cache_bytes = 0;
  spine::engine::QueryEngine engine(options);

  const uint64_t sample = CheckSample(inputs.workload);
  const uint64_t batch = BatchSize(inputs.workload);
  std::vector<QueryResult> sampled(sample);
  std::atomic<uint64_t> next{0};
  FailureLog failures;
  std::vector<std::unique_ptr<Client>> states;
  for (uint32_t c = 0; c < clients; ++c) {
    states.push_back(std::make_unique<Client>(config.traced));
  }

  const spine::obs::MetricsSnapshot before =
      spine::obs::Registry::Default().Snapshot();
  const uint64_t faults_before = MinorFaults();
  const Clock::time_point start = Clock::now();
  const auto after_start = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  // The first kWarmShare of the loop faults the mapped image in and
  // warms the caches; latency and throughput are measured after it.
  const Clock::time_point measured_from = after_start(config.seconds * kWarmShare);
  const double measured_s = config.seconds * (1 - kWarmShare);
  const Clock::time_point deadline = after_start(config.seconds);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, state = states[c].get()] {
      Tracer* tracer = &state->tracer;
      while (Clock::now() < deadline) {
        const uint64_t first = next.fetch_add(batch);
        std::vector<Query> queries;
        for (uint64_t b = 0; b < batch; ++b) {
          queries.push_back(StreamQuery(inputs, first + b));
        }
        ScopedSpan request(tracer, "request", first);
        const Clock::time_point t0 = Clock::now();
        std::vector<QueryResult> answers = engine.ExecuteBatch(*index, queries);
        const Clock::time_point t1 = Clock::now();
        tracer->Add("engine", first, t0, t1);
        if (t1 >= measured_from) {
          const size_t window = std::min<size_t>(
              kLatencyWindows - 1,
              static_cast<size_t>(SecondsBetween(measured_from, t1) / measured_s *
                                  kLatencyWindows));
          state->latency_ms[window].push_back(MillisBetween(t0, t1));
        }
        for (uint64_t b = 0; b < batch; ++b) {
          const uint64_t i = first + b;
          if (!answers[b].ok()) {
            failures.Fail("query " + std::to_string(i) + ": " + answers[b].error);
          }
          if (i < sample) sampled[i] = std::move(answers[b]);
          if (tracer->enabled()) {
            Replay(backend, queries[b], first, tracer, &state->counts);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const Clock::time_point stop = Clock::now();
  const spine::obs::MetricsSnapshot after =
      spine::obs::Registry::Default().Snapshot();
  const uint64_t faults = MinorFaults() - faults_before;

  const uint64_t completed = next.load();
  result.attempted = completed;
  ReplayCounts counts;
  for (const auto& state : states) {
    for (size_t w = 0; w < kLatencyWindows; ++w) {
      auto& lat = result.samples["latency_ms.w" + std::to_string(w)];
      lat.insert(lat.end(), state->latency_ms[w].begin(), state->latency_ms[w].end());
    }
    counts.Add(state->counts);
    result.TakeSpans(state->tracer);
  }
  result.values["completed"] = static_cast<double>(completed);
  result.values["loop_s"] = SecondsBetween(start, stop);
  result.values["window_s"] = measured_s / kLatencyWindows;
  result.values["batch"] = static_cast<double>(batch);
  result.values["index_chars"] = static_cast<double>(index->size());
  result.values["minor_faults"] = static_cast<double>(faults);
  result.values["replay.findall"] = static_cast<double>(counts.findall);
  result.values["replay.occurrences"] = static_cast<double>(counts.occurrences);
  result.values["replay.scanned"] = static_cast<double>(counts.scanned);
  result.values["replay.approx"] = static_cast<double>(counts.approx);
  result.values["replay.seeded"] = static_cast<double>(counts.seeded);
  result.values["replay.seed_len"] = static_cast<double>(counts.seed_len);
  result.values["replay.candidates"] = static_cast<double>(counts.candidates);
  result.values["replay.verified"] = static_cast<double>(counts.verified);
  result.info["kernel.dispatch"] = KernelDispatchName();
  result.info["threads"] = std::to_string(clients) + " clients + " +
                           std::to_string(clients) + " engine workers";
  AddRegistryDelta(before, after, &result);

  // Answer check: the sampled answers against the brute-force oracle
  // over the same text, spread over the CPU budget.
  const spine::core::NaiveTextAdapter oracle(spine::Alphabet::Dna(),
                                             inputs.corpus);
  const uint64_t checked = std::min(sample, completed);
  std::atomic<uint64_t> cursor{0};
  threads.clear();
  for (uint32_t c = 0; c < std::max<uint32_t>(1, config.cpu_budget); ++c) {
    threads.emplace_back([&] {
      for (uint64_t i = cursor.fetch_add(1); i < checked;
           i = cursor.fetch_add(1)) {
        const Query query = StreamQuery(inputs, i);
        if (!sampled[i].ok()) continue;  // already counted as failed
        if (!sampled[i].SameAnswer(oracle.Execute(query))) {
          failures.Wrong("query " + std::to_string(i) + " (" +
                         std::string(spine::QueryKindName(query.kind)) +
                         ") disagrees with the oracle");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.checked = checked;
  failures.MergeInto(&result);
  return result;
}

}  // namespace perfbench
