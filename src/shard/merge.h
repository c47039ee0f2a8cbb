// shard/merge.h — the one per-kind merge behind every multi-source
// index (shard::ShardedIndex, shard::DynamicFamily).
//
// A multi-source index answers a query by running the generic walks
// (core/search.h, core/matcher.h, core/approx.h) over several SPINE
// sources and merging their answers into one global coordinate space.
// Each family describes its sources as Source views; ExecuteMerged is
// the only code that knows how each query kind merges:
//
//   contains  OR over sources, early exit on the first hit (the next
//             source's root is prefetched while this one walks). A
//             clean source answers with its first-occurrence walk; a
//             dirty one must show an occurrence that maps live.
//   findall   per-source FindAll, mapped local -> global, kept when the
//             global start is live and inside the source's owned range
//             (drops the overlap duplicates of a static shard), sorted
//             by global position — byte-identical to the monolithic
//             answer.
//   ms        all sources clean: elementwise max of per-source matching
//             statistics (a matching substring lives wholly in some
//             source, and every per-source statistic is a true global
//             lower bound). Any dirty source: the incremental scan
//             ms[q] = longest live prefix of pattern[q..], probed with
//             `contains`; ms[q+1] >= ms[q] - 1 holds over any string
//             set, so the window grows by one probe per extension.
//   match     derived from the merged ms exactly where the monolithic
//             matcher reports: ms[q] >= min_len and (q == 0 or
//             ms[q-1] <= ms[q]). The reported position is the least
//             live global start of the matched substring (a clean
//             source's first-occurrence walk suffices: global offsets
//             rise with local position inside one source); with
//             expand_occurrences, every occurrence as for findall.
//   mismatch/ per-source seed-and-extend with the source's document
//   edit      separator, kept and sorted like findall. The families'
//             admission guarantees each kept window was verified
//             whole: a static shard's slice holds every window starting
//             in its core range, and no window crosses a document.
//
// Every kind accumulates the per-source SearchStats. A fired cancel
// token wins over whatever partial payload the walks left, and the
// query's obs (core.queries.*, core.* work counters, approx.*, trace
// notes) is recorded once, here, plus the shard.merge_us histogram
// around the combining step of findall, ms, match and the approximate
// kinds.

#ifndef SPINE_SHARD_MERGE_H_
#define SPINE_SHARD_MERGE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <variant>
#include <vector>

#include "common/cancel.h"
#include "compact/compact_spine.h"
#include "core/query.h"
#include "core/spine_index.h"
#include "obs/trace.h"

namespace spine::shard {

// What a Source's position map returns for a dead position.
inline constexpr int64_t kDeadPosition = -1;

// One searchable source of a multi-source index, as the merge sees it.
struct Source {
  // A compact image (static shard, frozen shard) or the reference
  // index (a dynamic family's memtable).
  std::variant<const CompactSpineIndex*, const SpineIndex*> index;
  // Local position -> global position, or kDeadPosition when the
  // position lies in a tombstoned or invisible document.
  std::function<int64_t(uint64_t)> to_global;
  // The global range [owned_begin, owned_end) whose occurrences this
  // source reports (a static shard's core range; everything otherwise).
  uint64_t owned_begin = 0;
  uint64_t owned_end = std::numeric_limits<uint64_t>::max();
  // Every local occurrence maps live, so the first-occurrence walk and
  // the elementwise-max matching statistics may stand for the source.
  bool clean = true;
  // Document separator the approximate kinds never match across.
  std::optional<char> separator;
};

// Answers `query` over `sources`, merged per the header note. `cancel`
// is threaded into every per-source walk, so a fired token stops
// mid-source, not just between sources.
QueryResult ExecuteMerged(const std::vector<Source>& sources,
                          const Query& query, obs::TraceContext* trace,
                          const CancelToken* cancel);

}  // namespace spine::shard

#endif  // SPINE_SHARD_MERGE_H_
