// The runtime-polymorphic index interface every consumer speaks.
//
// PR 1-3 unified the *query* vocabulary (core/query.h) but left every
// consumer welded to a concrete backend type: the batch engine was a
// template with a per-backend concurrency trait, and the CLI sniffed
// file magic in three separate places. `core::Index` is the missing
// seam — one abstract interface that every backend (reference SPINE,
// compact SPINE, generalized collections, paged disk structures, the
// suffix-tree and CDAWG baselines, the naive oracle, and sharded
// families) plugs into via thin adapters (core/adapters.h), opened
// uniformly through the BackendRegistry (core/registry.h).
//
// Capabilities replace compile-time traits: instead of specializing
// kConcurrentSafeReads<T>, a backend *reports* whether its const reads
// are thread-safe, whether its I/O layer latches errors, and which
// query kinds it can answer. Consumers branch on data, not on types.
//
// Cache identity: every Index instance is assigned a process-unique
// cache_id() at construction. The engine's result cache keys on it, so
// two distinct indexes can never cross-serve cached answers — the
// caller-managed backend_id footgun of PR 1 is gone by construction.

#ifndef SPINE_CORE_INDEX_H_
#define SPINE_CORE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "alphabet/alphabet.h"
#include "common/cancel.h"
#include "common/status.h"
#include "core/query.h"
#include "obs/trace.h"
#include "storage/mmap_region.h"

namespace spine::core {

// Which concrete structure sits behind the interface. Extend-only:
// values are stable identifiers used in tests and diagnostics.
enum class IndexKind : uint8_t {
  kSpine = 0,              // reference SpineIndex (core/spine_index.h)
  kCompactSpine = 1,       // Section 5 layout (compact/compact_spine.h)
  kGeneralizedSpine = 2,   // multi-string reference (core/generalized_spine.h)
  kGeneralizedCompact = 3, // multi-string compact (compact/generalized_compact.h)
  kDiskSpine = 4,          // paged SPINE (storage/disk_spine.h)
  kDiskSuffixTree = 5,     // paged ST baseline (storage/disk_suffix_tree.h)
  kSuffixTree = 6,         // in-memory Ukkonen baseline
  kCompactDawg = 7,        // CDAWG baseline (dawg/compact_dawg.h)
  kNaive = 8,              // brute-force oracle (naive/naive_index.h)
  kSharded = 9,            // K-way sharded family (shard/sharded_index.h)
  kDynamic = 10,           // LSM-style lifecycle (shard/dynamic_family.h)
};

constexpr std::string_view IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kSpine: return "spine";
    case IndexKind::kCompactSpine: return "compact";
    case IndexKind::kGeneralizedSpine: return "generalized";
    case IndexKind::kGeneralizedCompact: return "generalized-compact";
    case IndexKind::kDiskSpine: return "disk";
    case IndexKind::kDiskSuffixTree: return "disk-st";
    case IndexKind::kSuffixTree: return "suffix-tree";
    case IndexKind::kCompactDawg: return "cdawg";
    case IndexKind::kNaive: return "naive";
    case IndexKind::kSharded: return "sharded";
    case IndexKind::kDynamic: return "dynamic";
  }
  return "unknown";
}

// How an on-disk artifact is materialized at open time.
//
// kHeap reads the image into private memory (every byte copied and
// verified up front). kMmap maps the artifact and serves straight from
// the page cache: compact images borrow their tables from the mapping
// (zero copy, O(small) open), paged backends route their page reads
// through storage::MmapIoBackend. Built-in-memory indexes have no open
// mode; Index::open_mode() reports "built" for them.
enum class OpenMode : uint8_t {
  kHeap = 0,
  kMmap = 1,
};

struct OpenOptions {
  OpenMode mode = OpenMode::kHeap;
  // mmap only: verify the whole-image checksum and structural
  // invariants at open, exactly as the heap path always does (both
  // paths then reach identical verdicts on any artifact). false skips
  // both — bounds/geometry checks only — for artifact-size-independent
  // open cost on trusted images. Ignored by the heap path.
  bool verify = true;
  // mmap only: pre-fault the whole mapping at open (MAP_POPULATE), so
  // the first query never stalls on a page-in. Trades open latency for
  // query-tail latency. Ignored by the heap path.
  bool populate = false;
  // mmap only: advise the kernel to back the mapping with transparent
  // huge pages (MADV_HUGEPAGE, best-effort). Ignored by the heap path.
  bool hugepage = false;
};

// Parses an open spec: a base mode ("heap", "mmap" or "mmap-noverify")
// optionally followed by comma-separated mmap flags ("populate",
// "hugepage") — e.g. "mmap,populate,hugepage". This is the vocabulary
// of --open= and $SPINE_OPEN. kInvalidArgument otherwise (flags on
// "heap" are rejected: they have no heap meaning to silently ignore).
Result<OpenOptions> ParseOpenSpec(std::string_view spec);

// The canonical spec name for `options` (always a string literal, e.g.
// "heap", "mmap", "mmap-noverify,populate", "mmap,populate,hugepage").
std::string_view OpenOptionsName(const OpenOptions& options);

// Process default: $SPINE_OPEN when set and valid, else heap.
// Infallible — an invalid value warns once on stderr and falls back to
// heap (a misspelled env var must not take the serving fleet down).
OpenOptions DefaultOpenOptions();

// An image or shard file brought into memory the way `options` asks.
// ReadArtifact is the one place that decides between reading and
// mapping: kHeap reads the whole file into a private 8-aligned buffer,
// kMmap maps it (shared across in-process opens, with the populate and
// hugepage flags). Both feed the same borrowing parser through Parse.
struct Artifact {
  std::string path;
  storage::FileBytes bytes;
  // Whether the parse checks checksums and structure: always on a heap
  // read, OpenOptions::verify on a mapping.
  bool verify = true;
  // The mapping, for the length fence; null on a heap read.
  std::shared_ptr<const storage::MmapRegion> mapping;

  // Runs a borrowing parser (LoadCompactSpineFromMemory,
  // GeneralizedCompactSpine::LoadFromMemory) over the bytes. A failure
  // is prefixed with the artifact's path. After a heap read the index
  // copies its tables out of the buffer (EnsureOwnedTables), so it owns
  // them exactly like an index built in memory and the buffer is freed.
  template <typename T>
  Result<T> Parse(Result<T> (*parse)(const uint8_t*, uint64_t, bool,
                                     std::shared_ptr<const void>)) const {
    Result<T> parsed = parse(bytes.data, bytes.size, verify, bytes.owner);
    if (!parsed.ok()) {
      return Status(parsed.status().code(),
                    path + ": " + parsed.status().message());
    }
    if (mapping == nullptr) parsed->EnsureOwnedTables();
    return parsed;
  }
};

Result<Artifact> ReadArtifact(const std::string& path,
                              const OpenOptions& options);

constexpr uint8_t QueryKindBit(QueryKind kind) {
  return static_cast<uint8_t>(1u << static_cast<uint8_t>(kind));
}

// All six kinds of core/query.h.
inline constexpr uint8_t kAllQueryKinds =
    QueryKindBit(QueryKind::kContains) | QueryKindBit(QueryKind::kFindAll) |
    QueryKindBit(QueryKind::kMaximalMatches) |
    QueryKindBit(QueryKind::kMatchingStats) |
    QueryKindBit(QueryKind::kMismatch) |
    QueryKindBit(QueryKind::kEditDistance);

// The four exact kinds — what backends without position-addressable
// text (compact DAWG) can still answer.
inline constexpr uint8_t kExactQueryKinds =
    QueryKindBit(QueryKind::kContains) | QueryKindBit(QueryKind::kFindAll) |
    QueryKindBit(QueryKind::kMaximalMatches) |
    QueryKindBit(QueryKind::kMatchingStats);

// What a backend can do, reported at runtime. This is the data-driven
// replacement for the engine's old kConcurrentSafeReads<T> template
// trait (and the seam future capabilities — snapshots, online rebuild —
// will extend).
struct Capabilities {
  // Const Execute() calls are safe from many threads at once. False for
  // the paged backends, whose reads mutate a shared buffer pool; the
  // engine serializes those through a per-index mutex.
  bool concurrent_reads = true;
  // The backend's I/O layer latches errors (ConsumeError) instead of
  // aborting; Execute() can return kIoError / kCorruption verdicts that
  // describe the medium, not the query.
  bool statusful_io = false;
  // The backend can run the seed-and-extend path for the approximate
  // kinds (kMismatch / kEditDistance): exact seed location through the
  // backbone plus positional verification. Backends with this flag off
  // still answer those kinds when query_kinds allows it — via the
  // planner's O(n*m) verification scan.
  bool supports_approx = false;
  // The structure round-trips through an on-disk artifact the registry
  // can reopen (compact images, paged files, shard manifests).
  bool persistent = false;
  // Bitmask of answerable QueryKinds (QueryKindBit). Execute() returns
  // a kInvalidArgument result — never a silently empty answer — for
  // kinds outside the mask.
  uint8_t query_kinds = kAllQueryKinds;

  bool Supports(QueryKind kind) const {
    return (query_kinds & QueryKindBit(kind)) != 0;
  }
};

// The abstract index. Implementations are the adapter wrappers in
// core/adapters.h plus shard::ShardedIndex; all are immutable once
// constructed (the interface exposes no mutation).
class Index {
 public:
  Index();
  virtual ~Index() = default;

  // Identity is per-instance (cache_id); copying would forge it.
  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  virtual IndexKind kind() const = 0;
  virtual Capabilities capabilities() const = 0;
  virtual const Alphabet& alphabet() const = 0;
  // Number of indexed characters (for multi-string backends: the total
  // over the concatenation, separators included).
  virtual uint64_t size() const = 0;

  // Answers one query. Statusful: a backend fault surfaces as a
  // QueryResult with status_code != kOk (payload untrusted), never as a
  // crash or a silently wrong answer. Unsupported kinds (see
  // Capabilities::query_kinds) yield kInvalidArgument.
  //
  // `cancel`, when non-null, is polled cooperatively; a fired token
  // yields a kDeadlineExceeded / kCancelled result (common/cancel.h).
  // Checkpoint granularity is per backend: SPINE-shaped walks poll
  // every kCancelCheckInterval steps, paged backends additionally on
  // every buffer-pool miss, baselines at least between phases.
  virtual QueryResult Execute(const Query& query,
                              obs::TraceContext* trace = nullptr,
                              const CancelToken* cancel = nullptr) const = 0;

  // Full structural self-check (invariants + checksums where the
  // backend has them). Used by `spine verify`.
  virtual Status VerifyStructure() const = 0;

  virtual uint64_t MemoryBytes() const = 0;

  // Short human name, IndexKindName(kind()) by default.
  virtual std::string_view Name() const { return IndexKindName(kind()); }

  // Process-unique id for result-cache keying, assigned at
  // construction from a monotone counter (never 0, never reused).
  // Virtual so dynamic backends can report the *current generation's*
  // id instead: every mutation mints a fresh id, so cached answers
  // computed against an older generation become unreachable the moment
  // the generation pointer swaps (the engine LRU self-invalidates).
  virtual uint64_t cache_id() const { return cache_id_; }

  // Dynamic backends return an immutable snapshot of the current
  // generation: an Index whose answers and cache_id() stay frozen for
  // the snapshot's lifetime even while writers swap generations
  // underneath. Consumers that issue several queries expecting one
  // consistent view (the engine's multi-query batches) pin once and
  // query the snapshot. nullptr (the default) means this index is
  // already immutable — query it directly.
  virtual std::shared_ptr<const Index> PinSnapshot() const {
    return nullptr;
  }

  // How this index came to be: "built" (constructed in memory), or the
  // open spec the registry used ("heap" / "mmap" / "mmap-noverify").
  // Surfaced in `spine stats --json` and the server's stats snapshot.
  std::string_view open_mode() const { return open_mode_; }
  // Set by BackendRegistry::Open/OpenAs right after a successful open.
  void set_open_mode(std::string_view mode) { open_mode_ = mode; }

 private:
  const uint64_t cache_id_;
  std::string_view open_mode_ = "built";  // always a string literal
};

// A dynamic index that accepts document-level mutations after open.
// Implemented by shard::DynamicFamily (shard/dynamic_family.h);
// declared here so serve/ and tools/ can drive mutations through the
// abstract seam without depending on shard/. All methods are safe to
// call concurrently with Execute() on the same object; mutations
// themselves are serialized internally.
class MutableIndex : public Index {
 public:
  // Indexes a new document and returns its assigned doc id (monotone,
  // never reused). The document is queryable immediately but volatile
  // until the next Flush()/Compact() persists it.
  virtual Result<uint32_t> InsertDocument(std::string_view text) = 0;

  // Tombstones a live document: its text stops matching queries at
  // once and is physically dropped at the next compaction. kNotFound
  // if the id was never assigned or is already deleted.
  virtual Status DeleteDocument(uint32_t doc_id) = 0;

  // Freezes the memtable into a durable on-disk shard and swaps the
  // generation pointer. After Flush() returns OK, every prior mutation
  // survives crash + reopen.
  virtual Status Flush() = 0;

  // Flush, then merge all frozen shards into one, dropping tombstoned
  // documents. A failed compaction leaves the prior generation fully
  // live (on disk and in memory).
  virtual Status Compact() = 0;

  // Re-adopts the latest on-disk generation, discarding any volatile
  // (unflushed) in-memory state. The serve SIGHUP/`reload` hook.
  virtual Status Reload() = 0;

  // Version counter of the currently-served generation (bumps on every
  // successful mutation, flush, compaction or reload).
  virtual uint64_t generation_version() const = 0;

  // Number of live (inserted and not deleted) documents.
  virtual uint32_t live_documents() const = 0;
};

// Issues the next process-unique cache id (what the Index constructor
// calls; exposed so the registry can report id discipline in tests).
uint64_t NextIndexCacheId();

}  // namespace spine::core

#endif  // SPINE_CORE_INDEX_H_
