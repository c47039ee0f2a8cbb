// Path and shard-file helpers shared by the shard families' manifest
// code.

#ifndef SPINE_SHARD_FILES_H_
#define SPINE_SHARD_FILES_H_

#include <cstdint>
#include <string>

#include "common/crc32c.h"
#include "common/status.h"
#include "core/index.h"

namespace spine::shard::internal {

inline std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

inline std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// `filename` placed next to the manifest at `manifest_path`.
inline std::string SiblingPath(const std::string& manifest_path,
                               const std::string& filename) {
  const std::string dir = DirName(manifest_path);
  return dir.empty() ? filename : dir + "/" + filename;
}

// The manifest pins each shard file's byte size and whole-file CRC32C.
// The size is checked on every open, the CRC wherever the artifact's
// parse verifies (always after a heap read, on a mapping when
// OpenOptions::verify is set).
inline Status CheckShardFile(const core::Artifact& artifact, uint64_t size,
                             uint32_t crc) {
  if (artifact.bytes.size != size) {
    return Status::Corruption(
        artifact.path + ": size mismatch (manifest says " +
        std::to_string(size) + " bytes, file has " +
        std::to_string(artifact.bytes.size) + ")");
  }
  if (artifact.verify &&
      Crc32c(artifact.bytes.data, artifact.bytes.size) != crc) {
    return Status::Corruption(artifact.path +
                              ": shard file checksum mismatch");
  }
  return Status::OK();
}

}  // namespace spine::shard::internal

#endif  // SPINE_SHARD_FILES_H_
