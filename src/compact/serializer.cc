#include "compact/serializer.h"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "core/index.h"

namespace spine {

namespace {

constexpr uint32_t kMagic = 0x53504e45;  // "SPNE"
// v3: whole-image CRC32C footer after the trailer.
// v4: flat-table payloads 8-aligned (CRC-covered zero pads) so the
//     zero-copy loader can point into the image without misaligned
//     typed loads.
constexpr uint32_t kVersion = 4;

}  // namespace

class CompactSpineSerializer {
 public:
  static Status Save(const CompactSpineIndex& index, std::ostream& out) {
    serde::Writer w(out);
    w.Pod(kMagic);
    w.Pod(kVersion);
    w.Pod(static_cast<uint32_t>(index.alphabet_.kind()));
    w.Pod<uint64_t>(index.size());
    // Every flat table a reader may borrow is Align8'd: the pad puts
    // the 8-byte count at an 8-aligned image offset, so the payload
    // right after it is 8-aligned too (≥ any element alignment).
    w.Align8();
    w.Vec(index.codes_.word_data(), index.codes_.word_count());
    w.Align8();
    w.Vec(index.lt_word_.data(), index.lt_word_.size());
    w.Align8();
    w.Vec(index.lt_lel_.data(), index.lt_lel_.size());
    w.Align8();
    w.Vec(index.root_rib_dest_.data(), index.root_rib_dest_.size());
    for (int k = 0; k < 4; ++k) {
      w.Align8();
      w.Vec(index.rt_[k].data(), index.rt_[k].size());
    }
    for (int k = 0; k < 4; ++k) {
      w.Align8();
      w.Vec(index.rt_free_[k].data(), index.rt_free_[k].size());
    }
    // Hash-map payloads are rebuilt at open on every path, so they
    // stay unaligned (and unpadded).
    w.Pod<uint64_t>(index.rt_big_.size());
    for (const auto& [node, big] : index.rt_big_) {
      w.Pod(node);
      w.Pod(big.link_dest);
      w.Vec(big.ribs);
    }
    w.Pod<uint64_t>(index.extribs_.size());
    for (const auto& [node, entry] : index.extribs_) {
      w.Pod(node);
      w.Pod(entry);
    }
    w.Align8();
    w.Vec(index.overflow_.data(), index.overflow_.size());
    w.Pod(index.max_lel_);
    w.Pod(index.max_pt_);
    w.Pod(index.max_prt_);
    w.WriteCrcFooter();
    out.flush();
    if (!out) return Status::IoError("stream write failure");
    return Status::OK();
  }

  static Result<CompactSpineIndex> LoadFromMemory(
      const uint8_t* data, uint64_t size, bool verify,
      std::shared_ptr<const void> keepalive) {
    serde::MapReader r(data, size, /*verify_crc=*/verify);
    uint32_t magic = 0, version = 0, kind = 0;
    if (!r.Pod(&magic) || magic != kMagic) {
      return Status::Corruption("bad magic");
    }
    if (!r.Pod(&version) || version != kVersion) {
      return Status::Corruption("unsupported version");
    }
    std::optional<Alphabet> alphabet;
    if (!r.Pod(&kind) || !(alphabet = Alphabet::FromKind(kind))) {
      return Status::Corruption("bad alphabet kind");
    }
    if (alphabet->kind() == Alphabet::Kind::kByte) {
      return Status::Corruption(
          "compact images do not support the byte alphabet");
    }
    CompactSpineIndex index(*alphabet);
    uint64_t n = 0;
    if (!r.Pod(&n)) return Status::Corruption("truncated header");

    auto aligned_view = [&r](auto* bv) -> bool {
      using T = std::decay_t<decltype((*bv)[0])>;
      const T* p = nullptr;
      uint64_t count = 0;
      if (!r.Align8() || !r.View(&p, &count)) return false;
      bv->Borrow(p, count);
      return true;
    };

    const uint64_t* words = nullptr;
    uint64_t cl_words = 0;
    if (!r.Align8() || !r.View(&words, &cl_words)) {
      return Status::Corruption("truncated CL");
    }
    if (!aligned_view(&index.lt_word_) || !aligned_view(&index.lt_lel_) ||
        !aligned_view(&index.root_rib_dest_)) {
      return Status::Corruption("truncated LT");
    }
    for (int k = 0; k < 4; ++k) {
      if (!aligned_view(&index.rt_[k])) {
        return Status::Corruption("truncated RT");
      }
    }
    for (int k = 0; k < 4; ++k) {
      if (!aligned_view(&index.rt_free_[k])) {
        return Status::Corruption("truncated RT free list");
      }
    }
    uint64_t big_count = 0;
    if (!r.Pod(&big_count)) return Status::Corruption("truncated big table");
    for (uint64_t i = 0; i < big_count; ++i) {
      uint32_t node = 0;
      CompactSpineIndex::BigEntry big;
      if (!r.Pod(&node) || !r.Pod(&big.link_dest) || !r.Vec(&big.ribs)) {
        return Status::Corruption("truncated big entry");
      }
      index.rt_big_.emplace(node, std::move(big));
    }
    uint64_t ext_count = 0;
    if (!r.Pod(&ext_count)) return Status::Corruption("truncated extribs");
    for (uint64_t i = 0; i < ext_count; ++i) {
      uint32_t node = 0;
      CompactSpineIndex::ExtribEntry entry;
      if (!r.Pod(&node) || !r.Pod(&entry)) {
        return Status::Corruption("truncated extrib entry");
      }
      index.extribs_.emplace(node, entry);
    }
    if (!aligned_view(&index.overflow_)) {
      return Status::Corruption("truncated overflow table");
    }
    if (!r.Pod(&index.max_lel_) || !r.Pod(&index.max_pt_) ||
        !r.Pod(&index.max_prt_)) {
      return Status::Corruption("truncated trailer");
    }
    // Geometry before BorrowFromWords: its SPINE_CHECK must only see
    // images whose word count already passed the corruption check.
    if (cl_words * 64 < n * index.alphabet_.bits_per_code()) {
      return Status::Corruption("CL words inconsistent with size");
    }
    if (index.lt_word_.size() != n + 1 || index.lt_lel_.size() != n + 1 ||
        index.root_rib_dest_.size() != index.alphabet_.size()) {
      return Status::Corruption("LT sizes inconsistent");
    }
    for (uint32_t k = 0; k < 4; ++k) {
      if (index.rt_[k].size() % CompactSpineIndex::RtStride(k + 1) != 0) {
        return Status::Corruption("RT stride misalignment");
      }
    }
    index.codes_.BorrowFromWords(words, cl_words, n);
    // Whole-image checksum before any structural verdict: a payload
    // flip that happens to parse is still rejected here.
    if (!r.VerifyCrcFooter()) {
      return Status::Corruption("image checksum mismatch");
    }
    if (verify) {
      Status valid = index.Validate();
      if (!valid.ok()) return valid;
    }
    index.backing_ = std::move(keepalive);
    return index;
  }
};

Status SaveCompactSpine(const CompactSpineIndex& index,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open " + path +
                           " for writing: " + std::strerror(errno));
  }
  return CompactSpineSerializer::Save(index, out);
}

Result<CompactSpineIndex> LoadCompactSpine(const std::string& path) {
  Result<core::Artifact> artifact = core::ReadArtifact(path, {});
  if (!artifact.ok()) return artifact.status();
  return artifact->Parse(&LoadCompactSpineFromMemory);
}

Status SaveCompactSpineToStream(const CompactSpineIndex& index,
                                std::ostream& out) {
  return CompactSpineSerializer::Save(index, out);
}

Result<CompactSpineIndex> LoadCompactSpineFromMemory(
    const uint8_t* data, uint64_t size, bool verify,
    std::shared_ptr<const void> keepalive) {
  return CompactSpineSerializer::LoadFromMemory(data, size, verify,
                                                std::move(keepalive));
}

}  // namespace spine
