#include "shard/merge.h"

#include <algorithm>
#include <string_view>

#include "core/approx.h"
#include "core/matcher.h"
#include "core/search.h"
#include "obs/metrics.h"

namespace spine::shard {

namespace {

// Runs `fn` on the source's concrete index type.
template <typename Fn>
auto Visit(const Source& source, Fn&& fn) {
  return std::visit([&](const auto* index) { return fn(*index); },
                    source.index);
}

// The generic walks over one query's sources, accumulating their work
// into one SearchStats.
class Merger {
 public:
  Merger(const std::vector<Source>& sources, SearchStats* stats,
         const CancelToken* cancel)
      : sources_(sources), stats_(stats), cancel_(cancel) {}

  bool Contains(std::string_view pattern) const {
    for (size_t i = 0; i < sources_.size(); ++i) {
      // Warm the next source's root while this one walks; sources are
      // probed strictly in order on the miss path.
      if (i + 1 < sources_.size()) {
        Visit(sources_[i + 1],
              [](const auto& index) { index.PrefetchNode(kRootNode); });
      }
      const Source& source = sources_[i];
      if (source.clean) {
        if (FirstEnd(i, pattern).has_value()) return true;
        continue;
      }
      // A dirty source can only vouch for occurrences that map live.
      for (const uint32_t pos : FindAll(i, pattern)) {
        if (source.to_global(pos) != kDeadPosition) return true;
      }
    }
    return false;
  }

  std::vector<std::vector<uint32_t>> FindAllPerSource(
      std::string_view pattern) const {
    std::vector<std::vector<uint32_t>> local(sources_.size());
    for (size_t i = 0; i < sources_.size(); ++i) {
      local[i] = FindAll(i, pattern);
    }
    return local;
  }

  // The live, owned global positions of per-source local ones, sorted.
  std::vector<uint64_t> ToGlobal(
      const std::vector<std::vector<uint32_t>>& local) const {
    std::vector<uint64_t> positions;
    for (size_t i = 0; i < sources_.size(); ++i) {
      for (const uint32_t pos : local[i]) {
        const std::optional<uint64_t> global = Owned(i, pos);
        if (global.has_value()) positions.push_back(*global);
      }
    }
    std::sort(positions.begin(), positions.end());
    return positions;
  }

  // The least live global start of `pattern`. No owned-range filter:
  // every live local occurrence is a real global occurrence, the range
  // only deduplicates.
  std::optional<uint64_t> FirstOccurrence(std::string_view pattern) const {
    const uint32_t m = static_cast<uint32_t>(pattern.size());
    std::optional<uint64_t> first;
    const auto offer = [&first](int64_t global) {
      if (global == kDeadPosition) return false;
      if (!first.has_value() || static_cast<uint64_t>(global) < *first) {
        first = static_cast<uint64_t>(global);
      }
      return true;
    };
    for (size_t i = 0; i < sources_.size(); ++i) {
      const Source& source = sources_[i];
      if (source.clean) {
        const std::optional<NodeId> end = FirstEnd(i, pattern);
        if (end.has_value()) offer(source.to_global(*end - m));
        continue;
      }
      // Ascending local positions map to ascending global ones.
      for (const uint32_t pos : FindAll(i, pattern)) {
        if (offer(source.to_global(pos))) break;
      }
    }
    return first;
  }

  std::vector<uint32_t> MatchingStats(std::string_view pattern) const {
    const uint32_t m = static_cast<uint32_t>(pattern.size());
    std::vector<uint32_t> ms(m, 0);
    const bool all_clean =
        std::all_of(sources_.begin(), sources_.end(),
                    [](const Source& source) { return source.clean; });
    if (all_clean) {
      for (const Source& source : sources_) {
        const std::vector<uint32_t> one = Visit(source, [&](const auto& index) {
          return GenericMatchingStatistics(index, pattern, stats_, cancel_);
        });
        for (uint32_t q = 0; q < m; ++q) ms[q] = std::max(ms[q], one[q]);
      }
      return ms;
    }
    CancelCheckpoint checkpoint(cancel_);
    uint32_t z = 0;
    for (uint32_t q = 0; q < m; ++q) {
      if (checkpoint.ShouldStop()) return ms;
      if (z > 0) --z;
      while (q + z < m && Contains(pattern.substr(q, z + 1))) ++z;
      ms[q] = z;
    }
    return ms;
  }

  // kMismatch / kEditDistance: owned, live hits in global order.
  std::vector<Hit> Approx(const Query& query,
                          ApproxSearchStats* family_stats) const {
    std::vector<Hit> hits;
    for (size_t i = 0; i < sources_.size(); ++i) {
      const Source& source = sources_[i];
      ApproxSearchStats source_stats;
      const auto run = [&](const auto& index) {
        return query.kind == QueryKind::kMismatch
                   ? GenericFindMismatch(index, query.pattern,
                                         query.max_errors, stats_,
                                         &source_stats, cancel_,
                                         source.separator)
                   : GenericFindEditDistance(index, query.pattern,
                                             query.max_errors, stats_,
                                             &source_stats, cancel_,
                                             source.separator);
      };
      const std::vector<ApproxHit> local = Visit(source, run);
      for (const ApproxHit& hit : local) {
        const std::optional<uint64_t> global = Owned(i, hit.pos);
        if (global.has_value()) {
          hits.push_back(
              {static_cast<uint32_t>(*global), hit.length, hit.errors});
        }
      }
      family_stats->candidates += source_stats.candidates;
      family_stats->seeded = family_stats->seeded || source_stats.seeded;
      family_stats->seed_len =
          std::max(family_stats->seed_len, source_stats.seed_len);
    }
    return hits;
  }

 private:
  std::optional<NodeId> FirstEnd(size_t i, std::string_view pattern) const {
    return Visit(sources_[i], [&](const auto& index) {
      return GenericFindFirstEnd(index, pattern, stats_, cancel_);
    });
  }

  std::vector<uint32_t> FindAll(size_t i, std::string_view pattern) const {
    return Visit(sources_[i], [&](const auto& index) {
      return GenericFindAll(index, pattern, stats_, cancel_);
    });
  }

  std::optional<uint64_t> Owned(size_t i, uint64_t local) const {
    const Source& source = sources_[i];
    const int64_t global = source.to_global(local);
    if (global == kDeadPosition ||
        static_cast<uint64_t>(global) < source.owned_begin ||
        static_cast<uint64_t>(global) >= source.owned_end) {
      return std::nullopt;
    }
    return static_cast<uint64_t>(global);
  }

  const std::vector<Source>& sources_;
  SearchStats* stats_;
  const CancelToken* cancel_;
};

}  // namespace

QueryResult ExecuteMerged(const std::vector<Source>& sources,
                          const Query& query, obs::TraceContext* trace,
                          const CancelToken* cancel) {
  QueryResult result;
  const Merger merger(sources, &result.stats, cancel);
  const std::string_view pattern = query.pattern;
  ApproxSearchStats approx_stats;
  const bool approx_kind = query.kind == QueryKind::kMismatch ||
                           query.kind == QueryKind::kEditDistance;
  switch (query.kind) {
    case QueryKind::kContains:
      result.found = merger.Contains(pattern);
      break;
    case QueryKind::kFindAll: {
      const std::vector<std::vector<uint32_t>> local =
          merger.FindAllPerSource(pattern);
      SPINE_OBS_SCOPED_TIMER_US("shard.merge_us");
      const uint32_t m = static_cast<uint32_t>(pattern.size());
      for (const uint64_t pos : merger.ToGlobal(local)) {
        result.hits.push_back({static_cast<uint32_t>(pos), m, 0});
      }
      result.found = !result.hits.empty();
      break;
    }
    case QueryKind::kMatchingStats: {
      result.matching_stats = merger.MatchingStats(pattern);
      SPINE_OBS_SCOPED_TIMER_US("shard.merge_us");
      result.found = std::any_of(result.matching_stats.begin(),
                                 result.matching_stats.end(),
                                 [](uint32_t v) { return v > 0; });
      break;
    }
    case QueryKind::kMaximalMatches: {
      const uint32_t min_len = std::max<uint32_t>(query.min_len, 1);
      const std::vector<uint32_t> ms = merger.MatchingStats(pattern);
      SPINE_OBS_SCOPED_TIMER_US("shard.merge_us");
      CancelCheckpoint checkpoint(cancel);
      for (uint32_t q = 0; q < ms.size(); ++q) {
        if (checkpoint.ShouldStop()) break;
        const uint32_t len = ms[q];
        if (len < min_len) continue;
        // ms[q-1] can exceed ms[q] only by one; when it does, this
        // match is a suffix of the previous one and is not maximal.
        if (q > 0 && ms[q - 1] > len) continue;
        const std::string_view sub = pattern.substr(q, len);
        if (query.expand_occurrences) {
          for (const uint64_t pos :
               merger.ToGlobal(merger.FindAllPerSource(sub))) {
            result.hits.push_back({static_cast<uint32_t>(pos), len, q});
          }
        } else if (const std::optional<uint64_t> first =
                       merger.FirstOccurrence(sub);
                   first.has_value()) {
          result.hits.push_back({static_cast<uint32_t>(*first), len, q});
        }
      }
      result.found = !result.hits.empty();
      break;
    }
    case QueryKind::kMismatch:
    case QueryKind::kEditDistance: {
      result.hits = merger.Approx(query, &approx_stats);
      SPINE_OBS_SCOPED_TIMER_US("shard.merge_us");
      std::stable_sort(
          result.hits.begin(), result.hits.end(),
          [](const Hit& a, const Hit& b) { return a.pos < b.pos; });
      result.found = !result.hits.empty();
      approx_stats.verified = result.hits.size();
      break;
    }
  }
  // A fired token invalidates whatever partial merge the walks left;
  // the work done before the stop still counts.
  if (cancel != nullptr) {
    Status status = cancel->ToStatus();
    if (!status.ok()) {
      QueryResult stopped;
      stopped.stats = result.stats;
      stopped.status_code = status.code();
      stopped.error = std::string(status.message());
      result = std::move(stopped);
    }
  }
  if (approx_kind) RecordApproxObs(approx_stats, trace);
  RecordQueryObs(query, result, trace);
  return result;
}

}  // namespace spine::shard
