#include "core/index.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace spine::core {

namespace {
// Ids start at 1 so 0 can never collide with a live index (it was the
// old "default backend" magic value callers passed by hand).
std::atomic<uint64_t> g_next_cache_id{1};
}  // namespace

uint64_t NextIndexCacheId() {
  return g_next_cache_id.fetch_add(1, std::memory_order_relaxed);
}

Index::Index() : cache_id_(NextIndexCacheId()) {}

Result<OpenOptions> ParseOpenSpec(std::string_view spec) {
  // Split off the base mode; what follows are comma-separated flags.
  std::string_view base = spec;
  std::string_view flags;
  if (size_t comma = spec.find(','); comma != std::string_view::npos) {
    base = spec.substr(0, comma);
    flags = spec.substr(comma + 1);
  }
  OpenOptions options;
  if (base == "mmap") {
    options.mode = OpenMode::kMmap;
  } else if (base == "mmap-noverify") {
    options.mode = OpenMode::kMmap;
    options.verify = false;
  } else if (base != "heap") {
    return Status::InvalidArgument("unknown open mode '" + std::string(spec) +
                                   "' (expected heap, mmap or mmap-noverify, "
                                   "with optional ,populate / ,hugepage)");
  }
  while (!flags.empty()) {
    std::string_view flag = flags;
    if (size_t comma = flags.find(','); comma != std::string_view::npos) {
      flag = flags.substr(0, comma);
      flags = flags.substr(comma + 1);
    } else {
      flags = {};
    }
    // Flags on "heap" are rejected rather than silently ignored: the
    // caller asked for mmap behavior the heap path cannot deliver.
    if (options.mode == OpenMode::kHeap) {
      return Status::InvalidArgument("open flag '" + std::string(flag) +
                                     "' requires an mmap mode");
    }
    if (flag == "populate") {
      options.populate = true;
    } else if (flag == "hugepage") {
      options.hugepage = true;
    } else {
      return Status::InvalidArgument(
          "unknown open flag '" + std::string(flag) +
          "' (expected populate or hugepage)");
    }
  }
  return options;
}

std::string_view OpenOptionsName(const OpenOptions& options) {
  if (options.mode == OpenMode::kHeap) return "heap";
  // open_mode() promises a string literal, so enumerate the combos.
  const int flags =
      (options.populate ? 1 : 0) | (options.hugepage ? 2 : 0);
  if (options.verify) {
    constexpr std::string_view kNames[] = {
        "mmap", "mmap,populate", "mmap,hugepage", "mmap,populate,hugepage"};
    return kNames[flags];
  }
  constexpr std::string_view kNames[] = {
      "mmap-noverify", "mmap-noverify,populate", "mmap-noverify,hugepage",
      "mmap-noverify,populate,hugepage"};
  return kNames[flags];
}

OpenOptions DefaultOpenOptions() {
  // Resolved once: the env var is process configuration, not a per-open
  // knob (per-open choice is what the OpenOptions parameter is for).
  static const OpenOptions resolved = [] {
    OpenOptions options;
    const char* spec = std::getenv("SPINE_OPEN");
    if (spec == nullptr || spec[0] == '\0') return options;
    Result<OpenOptions> parsed = ParseOpenSpec(spec);
    if (!parsed.ok()) {
      std::fprintf(stderr,
                   "spine: ignoring invalid SPINE_OPEN=%s (%s); using heap\n",
                   spec, parsed.status().message().c_str());
      return options;
    }
    return *parsed;
  }();
  return resolved;
}

Result<Artifact> ReadArtifact(const std::string& path,
                              const OpenOptions& options) {
  Artifact artifact;
  artifact.path = path;
  if (options.mode == OpenMode::kMmap) {
    storage::MmapOptions mmap_options;
    mmap_options.populate = options.populate;
    mmap_options.hugepage = options.hugepage;
    Result<std::shared_ptr<storage::MmapRegion>> region =
        storage::MmapRegion::MapShared(path, mmap_options);
    if (!region.ok()) return region.status();
    artifact.bytes = {(*region)->data(), (*region)->size(), *region};
    artifact.verify = options.verify;
    artifact.mapping = std::move(*region);
    return artifact;
  }
  Result<storage::FileBytes> file = storage::ReadFile(path);
  if (!file.ok()) return file.status();
  artifact.bytes = std::move(*file);
  return artifact;
}

}  // namespace spine::core
