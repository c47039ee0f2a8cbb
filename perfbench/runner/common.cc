#include "runner/common.h"

#include <sys/resource.h>

#include "kernel/kernel.h"
#include "obs/json.h"

namespace perfbench {

int64_t Tracer::Begin(const char* name, uint64_t request) {
  const int64_t id = static_cast<int64_t>(spans_.size());
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = Clock::now();
  spans_.push_back(span);
  open_.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  spans_[static_cast<size_t>(id)].end = Clock::now();
  // Spans close in LIFO order within one thread.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Add(const char* name, uint64_t request, Clock::time_point start,
                 Clock::time_point end) {
  AddUnder(open_.empty() ? -1 : open_.back(), name, request, start, end);
}

int64_t Tracer::AddUnder(int64_t parent, const char* name, uint64_t request,
                         Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void PhaseResult::Error(const std::string& message) {
  if (errors.size() < 8) errors.push_back(message);
}

void PhaseResult::TakeSpans(const Tracer& tracer) {
  const int64_t base = static_cast<int64_t>(spans.size());
  for (Span span : tracer.spans()) {
    if (span.parent >= 0) span.parent += base;
    spans.push_back(span);
  }
}

void FailureLog::Fail(const std::string& message) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(message);
}

void FailureLog::Wrong(const std::string& message) {
  std::lock_guard<std::mutex> lock(mu_);
  ++wrong_;
  if (messages_.size() < 8) messages_.push_back("wrong answer: " + message);
}

void FailureLog::MergeInto(PhaseResult* result) {
  std::lock_guard<std::mutex> lock(mu_);
  result->failed += failed_;
  result->wrong += wrong_;
  for (const std::string& message : messages_) result->Error(message);
}

void AddRegistryDelta(const spine::obs::MetricsSnapshot& before,
                      const spine::obs::MetricsSnapshot& after,
                      PhaseResult* result) {
  for (const auto& [name, value] : after.counters) {
    result->values["reg." + name] =
        static_cast<double>(value - before.counter(name));
  }
  for (const auto& [name, hist] : after.histograms) {
    spine::obs::MetricsSnapshot::HistogramValue delta = hist;
    auto it = before.histograms.find(name);
    if (it != before.histograms.end() &&
        it->second.buckets.size() == hist.buckets.size()) {
      for (size_t i = 0; i < delta.buckets.size(); ++i) {
        delta.buckets[i] -= it->second.buckets[i];
      }
      delta.count -= it->second.count;
      delta.sum -= it->second.sum;
    }
    result->histograms[name] = std::move(delta);
  }
}

uint64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

std::string KernelDispatchName() {
  return spine::kernel::KindName(spine::kernel::Active().kind);
}

namespace {

double MicrosSince(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - epoch).count();
}

void WritePhase(const PhaseResult& phase, Clock::time_point epoch,
                spine::obs::JsonWriter* w) {
  w->BeginObject();
  w->Key("traced");
  w->Value(phase.traced);
  w->Key("attempted");
  w->Value(phase.attempted);
  w->Key("failed");
  w->Value(phase.failed);
  w->Key("wrong");
  w->Value(phase.wrong);
  w->Key("checked");
  w->Value(phase.checked);
  w->Key("errors");
  w->BeginArray();
  for (const std::string& e : phase.errors) w->Value(e);
  w->EndArray();
  w->Key("values");
  w->BeginObject();
  for (const auto& [k, v] : phase.values) {
    w->Key(k);
    w->Value(v);
  }
  w->EndObject();
  w->Key("samples");
  w->BeginObject();
  for (const auto& [k, list] : phase.samples) {
    w->Key(k);
    w->BeginArray();
    for (double v : list) w->Value(v);
    w->EndArray();
  }
  w->EndObject();
  w->Key("info");
  w->BeginObject();
  for (const auto& [k, v] : phase.info) {
    w->Key(k);
    w->Value(v);
  }
  w->EndObject();
  w->Key("histograms");
  w->BeginObject();
  for (const auto& [k, h] : phase.histograms) {
    w->Key(k);
    w->BeginObject();
    w->Key("bounds");
    w->BeginArray();
    for (double b : h.bounds) w->Value(b);
    w->EndArray();
    w->Key("buckets");
    w->BeginArray();
    for (uint64_t b : h.buckets) w->Value(b);
    w->EndArray();
    w->Key("count");
    w->Value(h.count);
    w->Key("sum");
    w->Value(h.sum);
    w->EndObject();
  }
  w->EndObject();
  // Spans as parallel arrays: compact and quick to load.
  w->Key("spans");
  w->BeginObject();
  w->Key("name");
  w->BeginArray();
  for (const Span& s : phase.spans) w->Value(s.name);
  w->EndArray();
  w->Key("request");
  w->BeginArray();
  for (const Span& s : phase.spans) w->Value(s.request);
  w->EndArray();
  w->Key("parent");
  w->BeginArray();
  for (const Span& s : phase.spans) w->Value(s.parent);
  w->EndArray();
  w->Key("start_us");
  w->BeginArray();
  for (const Span& s : phase.spans) w->Value(MicrosSince(epoch, s.start));
  w->EndArray();
  w->Key("end_us");
  w->BeginArray();
  for (const Span& s : phase.spans) w->Value(MicrosSince(epoch, s.end));
  w->EndArray();
  w->EndObject();
  w->EndObject();
}

}  // namespace

std::string ResultsToJson(const std::string& workload, uint64_t seed,
                          const std::string& input_hash,
                          const std::vector<PhaseResult>& phases,
                          Clock::time_point epoch) {
  spine::obs::JsonWriter w;
  w.BeginObject();
  w.Key("workload");
  w.Value(workload);
  w.Key("seed");
  w.Value(seed);
  w.Key("input_hash");
  w.Value(input_hash);
  w.Key("phases");
  w.BeginArray();
  for (const PhaseResult& phase : phases) WritePhase(phase, epoch, &w);
  w.EndArray();
  w.EndObject();
  return std::move(w).Finish();
}

}  // namespace perfbench
