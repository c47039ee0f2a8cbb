// ingest: writes beside reads on a shard::DynamicFamily.
//
// The phase is a series of cycles, each on a fresh family: set-up
// (Create, a preload of kPreload documents, Flush), then one writer
// thread inserts kCycleDocs seeded documents — deleting a fixed share
// of them a few inserts later — with the size-triggered flush and the
// background compaction on, and ends with an explicit Flush() and
// Compact(). A reader thread sends contains and findall on
// documents the writer has acknowledged at a fixed rate (kReadRate, an
// open loop: each read is timed from when it was due), calling the
// family's Execute directly, until the cycle's Compact() returns.
// Cycles repeat until the phase's time is spent; rates are medians over
// cycles, latencies are pooled.
//
// Every read is checked against a model of acknowledged inserts and
// deletes, ordered by one event counter: a document whose insert was
// acknowledged before the read began, and whose delete had not begun
// before the read ended, must be visible; a document whose delete was
// acknowledged before the read began must be invisible (unless the
// pattern also occurs in a live document). Reads racing a delete are
// not judged.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include "alphabet/alphabet.h"
#include "common/rng.h"
#include "runner/workloads.h"
#include "shard/dynamic_family.h"

namespace perfbench {
namespace {

using spine::Query;
using spine::QueryResult;

// Flush when the memtable holds this many characters; merge frozen
// shards once this many exist.
constexpr uint64_t kFlushThreshold = 64 * 1024;
constexpr uint32_t kCompactFanout = 4;
// Documents inserted (and flushed) during set-up, and per cycle.
constexpr uint32_t kPreload = 32;
constexpr uint32_t kCycleDocs = 160;
constexpr uint32_t kDocs = kPreload + kCycleDocs;
// Every kDeleteEvery-th insert is followed by deleting the document
// inserted kDeleteLag inserts earlier: a fixed 1/kDeleteEvery share.
constexpr uint32_t kDeleteEvery = 5;
constexpr uint32_t kDeleteLag = 7;
// Reads per second offered by the reader. A closed-loop reader holds
// the memtable's reader-preferring shared_mutex nearly all the time and
// starves the writer's exclusive lock for seconds at a stretch; a
// paced reader leaves the writer room, as a real read load would.
constexpr double kReadRate = 150;
// Cycles per phase: at least kMinCycles, then more while time is left.
constexpr uint32_t kMinCycles = 3;

struct DocState {
  std::atomic<uint64_t> insert_ack{0};
  std::atomic<uint64_t> delete_begin{0};
  std::atomic<uint64_t> delete_ack{0};
};

spine::shard::DynamicFamily::Options FamilyOptions() {
  spine::shard::DynamicFamily::Options options;
  options.open.mode = spine::core::OpenMode::kMmap;
  options.flush_threshold_bytes = kFlushThreshold;
  options.compact_fanout = kCompactFanout;
  return options;
}

// Sum over every shard image file ever seen in `dir` of its largest
// observed size. Shard images are written once under unique names.
class ArtifactWatch {
 public:
  explicit ArtifactWatch(std::string dir) : dir_(std::move(dir)) {}
  void Poll() {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.find(".g") == std::string::npos) continue;  // manifests
      const uint64_t size = entry.file_size(ec);
      if (ec) continue;
      uint64_t& seen = sizes_[name];
      seen = std::max(seen, size);
    }
  }
  uint64_t total() const {
    uint64_t sum = 0;
    for (const auto& [name, size] : sizes_) sum += size;
    return sum;
  }

 private:
  std::string dir_;
  std::map<std::string, uint64_t> sizes_;
};

// Everything the cycles of one phase accumulate.
struct Totals {
  explicit Totals(bool traced) : writer_tracer(traced), reader_tracer(traced) {}
  Tracer writer_tracer;
  Tracer reader_tracer;
  FailureLog failures;
  std::vector<double> docs_per_s, reads_per_s, bytes_per_char;
  // Per-operation latencies, kept apart per thread and pooled at the end.
  std::vector<double> read_ms, read_during_bg_ms, insert_us;
  uint64_t docs = 0, deletes = 0, reads = 0, judged = 0;
  uint64_t inserted_bytes = 0, artifact_bytes = 0;
};

void RunCycle(const Inputs& in, const PhaseConfig& config, uint32_t cycle,
              const std::vector<std::string>& texts, PhaseResult* result,
              Totals* totals) {
  const std::string dir = config.workdir + "/ingest" + std::to_string(cycle);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<uint32_t> ids(kDocs);
  std::vector<DocState> state(kDocs);

  const Clock::time_point t0 = Clock::now();
  auto created = spine::shard::DynamicFamily::Create(
      dir + "/docs.spinefam", spine::Alphabet::Dna(), FamilyOptions());
  if (!created.ok()) throw std::runtime_error("create: " + created.status().ToString());
  std::unique_ptr<spine::shard::DynamicFamily> family = std::move(created).value();
  for (uint32_t j = 0; j < kPreload; ++j) {
    auto id = family->InsertDocument(texts[j]);
    if (!id.ok()) throw std::runtime_error("preload: " + id.status().ToString());
    ids[j] = *id;
  }
  const Clock::time_point t1 = Clock::now();
  spine::Status status = family->Flush();
  if (!status.ok()) throw std::runtime_error("flush: " + status.ToString());
  const Clock::time_point t2 = Clock::now();
  result->samples["setup_s"].push_back(SecondsBetween(t0, t2));
  result->samples["compact.build_s"].push_back(SecondsBetween(t0, t1));
  result->samples["compact.save_s"].push_back(SecondsBetween(t1, t2));
  result->samples["lifecycle.flush_ms"].push_back(MillisBetween(t1, t2));

  std::atomic<uint64_t> clock{1};
  for (uint32_t j = 0; j < kPreload; ++j) state[j].insert_ack = clock++;
  std::atomic<uint32_t> acked{kPreload};
  std::atomic<bool> writer_done{false};
  // Set while the writer runs the cycle's closing Flush() and Compact().
  std::atomic<bool> closing{false};
  spine::obs::Counter& flushes =
      spine::obs::Registry::Default().GetCounter("lifecycle.flushes");
  spine::obs::Counter& compactions =
      spine::obs::Registry::Default().GetCounter("lifecycle.compactions");
  ArtifactWatch watch(dir);
  watch.Poll();
  const uint64_t preload_artifacts = watch.total();
  FailureLog& failures = totals->failures;
  uint64_t deletes = 0;
  Clock::time_point writer_end;
  const Clock::time_point start = Clock::now();

  std::thread writer([&] {
    Tracer* tracer = &totals->writer_tracer;
    for (uint32_t j = kPreload; j < kDocs; ++j) {
      const Clock::time_point w0 = Clock::now();
      auto id = family->InsertDocument(texts[j]);
      const Clock::time_point w1 = Clock::now();
      tracer->Add("lifecycle.insert", j, w0, w1);
      if (!id.ok()) {
        failures.Fail("insert " + std::to_string(j) + ": " + id.status().ToString());
        break;
      }
      totals->insert_us.push_back(
          std::chrono::duration<double, std::micro>(w1 - w0).count());
      totals->inserted_bytes += texts[j].size();
      ids[j] = *id;
      state[j].insert_ack = clock++;
      acked.store(j + 1, std::memory_order_release);
      if (j % kDeleteEvery == 0) {
        const uint32_t victim = j - kDeleteLag;
        state[victim].delete_begin = clock++;
        const Clock::time_point d0 = Clock::now();
        spine::Status deleted = family->DeleteDocument(ids[victim]);
        const Clock::time_point d1 = Clock::now();
        tracer->Add("lifecycle.delete", victim, d0, d1);
        if (!deleted.ok()) {
          failures.Fail("delete " + std::to_string(victim) + ": " + deleted.ToString());
        }
        state[victim].delete_ack = clock++;
        ++deletes;
      }
      watch.Poll();
    }
    closing.store(true);
    const Clock::time_point f0 = Clock::now();
    spine::Status done = family->Flush();
    const Clock::time_point f1 = Clock::now();
    if (done.ok()) done = family->Compact();
    const Clock::time_point f2 = Clock::now();
    tracer->Add("lifecycle.flush", cycle, f0, f1);
    tracer->Add("lifecycle.compact", cycle, f1, f2);
    if (!done.ok()) failures.Fail("final flush/compact: " + done.ToString());
    watch.Poll();
    writer_end = f2;
    result->samples["lifecycle.flush_ms"].push_back(MillisBetween(f0, f1));
    result->samples["lifecycle.compact_ms"].push_back(MillisBetween(f1, f2));
    writer_done.store(true);
  });

  uint64_t reads = 0;
  std::thread reader([&] {
    Tracer* tracer = &totals->reader_tracer;
    spine::Rng rng(SubSeed(in.seed, 100, cycle));
    // The writer's last Compact() is part of the measured window.
    while (!writer_done.load()) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(reads / kReadRate));
      std::this_thread::sleep_until(due);
      const uint32_t d = static_cast<uint32_t>(
          rng.Below(acked.load(std::memory_order_acquire)));
      const std::string& text = texts[d];
      const uint64_t k = rng.Below(100);
      Query q;
      // No ms: against a family with tombstones it takes ~60 ms (its
      // incremental scan runs a findall per probe on each dirty source),
      // 150 times a contains or findall, so a few of them set p99 alone.
      if (k < 60) {
        q = Query::Contains(text.substr(rng.Below(text.size() - 24), 24));
      } else {
        q = Query::FindAll(text.substr(rng.Below(text.size() - 20), 20));
      }
      const uint64_t read_id = (static_cast<uint64_t>(cycle) << 32) | reads;
      ScopedSpan request(tracer, "request", read_id);
      const uint64_t s0 = clock.load();
      const bool closing0 = closing.load();
      const uint64_t bg0 = flushes.value() + compactions.value();
      const Clock::time_point r0 = Clock::now();
      const QueryResult answer = family->Execute(q);
      const Clock::time_point r1 = Clock::now();
      const uint64_t bg1 = flushes.value() + compactions.value();
      const uint64_t s1 = clock.load();
      tracer->Add("lifecycle.read", read_id, r0, r1);
      ++reads;
      const double ms = MillisBetween(due, r1);
      totals->read_ms.push_back(ms);
      // A read overlapped flush or compaction work when the cycle's
      // closing Flush/Compact was running as it began or ended, or a
      // background job completed while it ran.
      if (bg1 != bg0 || closing0 || closing.load()) {
        totals->read_during_bg_ms.push_back(ms);
      }
      if (!answer.ok()) {
        failures.Fail("read: " + answer.error);
        continue;
      }
      const bool visible = answer.found;
      const uint64_t del_begin = state[d].delete_begin.load();
      const uint64_t del_ack = state[d].delete_ack.load();
      const bool must_see = del_begin == 0 || del_begin > s1;
      const bool must_miss = del_ack != 0 && del_ack < s0;
      if (must_see || must_miss) ++totals->judged;
      if (must_see && !visible) {
        failures.Wrong("acknowledged document " + std::to_string(d) +
                       " not visible to " +
                       std::string(spine::QueryKindName(q.kind)));
      } else if (must_miss && visible) {
        // Visible only if another live document holds the pattern.
        bool elsewhere = false;
        const uint32_t n = acked.load(std::memory_order_acquire);
        for (uint32_t o = 0; o < n && !elsewhere; ++o) {
          elsewhere = o != d && state[o].delete_begin.load() == 0 &&
                      texts[o].find(q.pattern) != std::string::npos;
        }
        if (!elsewhere) {
          failures.Wrong("deleted document " + std::to_string(d) +
                         " still visible to " +
                         std::string(spine::QueryKindName(q.kind)));
        }
      }
    }
  });
  writer.join();
  reader.join();
  spine::Status bg = family->TakeBackgroundError();
  if (!bg.ok()) failures.Fail("background: " + bg.ToString());

  const double seconds = SecondsBetween(start, writer_end);
  totals->docs_per_s.push_back(kCycleDocs / seconds);
  totals->reads_per_s.push_back(static_cast<double>(reads) / seconds);
  totals->bytes_per_char.push_back(static_cast<double>(family->MemoryBytes()) /
                                   static_cast<double>(family->size()));
  totals->docs += kCycleDocs;
  totals->deletes += deletes;
  totals->reads += reads;
  totals->artifact_bytes += watch.total() - preload_artifacts;
  family = nullptr;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

PhaseResult RunIngest(const Inputs& in, const PhaseConfig& config) {
  PhaseResult result;
  result.traced = config.traced;
  std::vector<std::string> texts(kDocs);
  for (uint32_t j = 0; j < kDocs; ++j) texts[j] = IngestDocument(in.seed, j);

  Totals totals(config.traced);
  const spine::obs::MetricsSnapshot before =
      spine::obs::Registry::Default().Snapshot();
  const Clock::time_point start = Clock::now();
  uint32_t cycles = 0;
  while (cycles < kMinCycles || SecondsBetween(start, Clock::now()) < config.seconds) {
    RunCycle(in, config, cycles, texts, &result, &totals);
    ++cycles;
  }
  const spine::obs::MetricsSnapshot after =
      spine::obs::Registry::Default().Snapshot();

  result.attempted = totals.reads + totals.docs + totals.deletes;
  result.checked = totals.judged;
  result.samples["latency_ms"] = std::move(totals.read_ms);
  result.samples["lifecycle.insert_us"] = std::move(totals.insert_us);
  result.samples["lifecycle.read_during_bg_ms"] = std::move(totals.read_during_bg_ms);
  result.samples["ingest_docs_per_s"] = std::move(totals.docs_per_s);
  result.samples["reads_per_s"] = std::move(totals.reads_per_s);
  result.samples["bytes_per_char"] = std::move(totals.bytes_per_char);
  result.values["cycles"] = cycles;
  result.values["completed"] = static_cast<double>(totals.reads);
  result.values["docs"] = static_cast<double>(totals.docs);
  result.values["deletes"] = static_cast<double>(totals.deletes);
  result.values["inserted_bytes"] = static_cast<double>(totals.inserted_bytes);
  result.values["artifact_bytes"] = static_cast<double>(totals.artifact_bytes);
  result.info["kernel.dispatch"] = KernelDispatchName();
  result.info["threads"] = "1 writer + 1 reader (" +
                           std::to_string(static_cast<int>(kReadRate)) +
                           " reads/s) + 1 background";
  AddRegistryDelta(before, after, &result);
  result.TakeSpans(totals.writer_tracer);
  result.TakeSpans(totals.reader_tracer);
  totals.failures.MergeInto(&result);
  return result;
}

}  // namespace perfbench
