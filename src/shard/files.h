// Path and file helpers shared by the shard families' manifest code.

#ifndef SPINE_SHARD_FILES_H_
#define SPINE_SHARD_FILES_H_

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/status.h"

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

inline Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("failed reading " + path);
  return std::move(buffer).str();
}

}  // namespace spine::shard::internal

#endif  // SPINE_SHARD_FILES_H_
