// Minimal POD/vector serialization shared by the index serializers
// (compact/serializer.cc, compact/generalized_compact.cc, the shard
// manifests, storage/*.cc metadata sidecars).
//
// Writer streams an image out; MapReader is the one reader. It walks
// an image already in memory — a whole-file heap read
// (storage::ReadFile) or a mapping (storage::MmapRegion) — and hands
// out borrowed pointers into it instead of copying. Because both open
// paths run the same reader over the same bytes, they accept or reject
// any image identically (the property the fuzz harness' twin check
// locks in).
//
// Robustness properties:
//   - Writer and MapReader both accumulate a running CRC32C over every
//     byte written/consumed; WriteCrcFooter / VerifyCrcFooter turn it
//     into a whole-image integrity check that catches any single-bit
//     corruption the structural checks miss.
//   - Every element count is bounded against the bytes actually
//     remaining, so a corrupted length field fails cleanly instead of
//     attempting a multi-GiB allocation.
//   - Writer::Align8 pads with CRC-covered zero bytes so array
//     payloads land 8-aligned in the file; MapReader rejects a missing
//     or nonzero pad as tampering.

#ifndef SPINE_COMMON_SERDE_H_
#define SPINE_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

#include "common/crc32c.h"

namespace spine::serde {

class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Raw(&value, sizeof(T));
  }

  template <typename T>
  void Vec(const std::vector<T>& vec) {
    static_assert(std::is_trivially_copyable_v<T>);
    Pod<uint64_t>(vec.size());
    if (!vec.empty()) Raw(vec.data(), vec.size() * sizeof(T));
  }

  // Pointer/count variant (BorrowVec members, borrowed word arrays).
  template <typename T>
  void Vec(const T* data, uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    Pod<uint64_t>(count);
    if (count > 0) Raw(data, count * sizeof(T));
  }

  // Raw CRC-covered bytes with no length prefix (callers encode their
  // own framing).
  void Bytes(const void* data, size_t n) { Raw(data, n); }

  // Zero-pads (CRC-covered) so the next byte lands on an 8-byte file
  // offset — written before each array a zero-copy reader will point
  // into, making the borrowed T* naturally aligned.
  void Align8() {
    static const char kZeros[8] = {0};
    size_t pad = static_cast<size_t>((8 - written_ % 8) % 8);
    if (pad > 0) Raw(kZeros, pad);
  }

  // Zero-pads so the byte AFTER a 4-byte CRC footer lands 8-aligned —
  // used when a self-aligned image follows the footer (the generalized
  // container's embedded inner image).
  void AlignForFooter8() {
    static const char kZeros[8] = {0};
    size_t pad = static_cast<size_t>((8 - (written_ + 4) % 8) % 8);
    if (pad > 0) Raw(kZeros, pad);
  }

  uint64_t written() const { return written_; }

  // CRC32C of everything written so far.
  uint32_t crc() const { return Crc32cFinish(crc_state_); }

  // Appends the running CRC as a trailer. The footer itself is not
  // folded into the CRC; pair with MapReader::VerifyCrcFooter.
  void WriteCrcFooter() {
    uint32_t footer = crc();
    out_.write(reinterpret_cast<const char*>(&footer), sizeof(footer));
  }

 private:
  void Raw(const void* data, size_t n) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
    crc_state_ = Crc32cExtend(crc_state_, data, n);
    written_ += n;
  }

  std::ostream& out_;
  uint32_t crc_state_ = kCrc32cInit;
  uint64_t written_ = 0;
};

// Walks a serialized image already resident in memory and hands out
// borrowed pointers into it instead of copying. Constructed with
// verify_crc=false it skips the CRC fold entirely (the "mmap-noverify"
// open mode: structural bounds checks only, O(1-ish) open cost), in
// which case VerifyCrcFooter only checks the footer's presence.
class MapReader {
 public:
  MapReader(const uint8_t* data, uint64_t size, bool verify_crc = true)
      : data_(data), size_(size), verify_(verify_crc) {}

  template <typename T>
  [[nodiscard]] bool Pod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size_ - offset_ < sizeof(T)) return false;
    std::memcpy(value, data_ + offset_, sizeof(T));
    Consume(sizeof(T));
    return true;
  }

  // Count-prefixed array, borrowed: *out points into the image (valid
  // while the image bytes live), naturally aligned because the writer
  // Align8'd before it. Misalignment is treated as corruption.
  template <typename T>
  [[nodiscard]] bool View(const T** out, uint64_t* count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!Pod(count)) return false;
    if (*count > (size_ - offset_) / sizeof(T)) return false;
    const uint8_t* p = data_ + offset_;
    if (reinterpret_cast<uintptr_t>(p) % alignof(T) != 0) return false;
    *out = reinterpret_cast<const T*>(p);
    Consume(*count * sizeof(T));
    return true;
  }

  // Count-prefixed array, copied (payloads the caller keeps in its own
  // containers: hash maps rebuilt at open, manifests, sidecars).
  template <typename T>
  [[nodiscard]] bool Vec(std::vector<T>* vec) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    if (!Pod(&count)) return false;
    if (count > (size_ - offset_) / sizeof(T)) return false;
    vec->resize(count);
    if (count > 0) {
      std::memcpy(vec->data(), data_ + offset_, count * sizeof(T));
      Consume(count * sizeof(T));
    }
    return true;
  }

  [[nodiscard]] bool Bytes(void* out, uint64_t n) {
    if (size_ - offset_ < n) return false;
    std::memcpy(out, data_ + offset_, n);
    Consume(n);
    return true;
  }

  [[nodiscard]] bool Align8() { return SkipPad((8 - offset_ % 8) % 8); }
  [[nodiscard]] bool AlignForFooter8() {
    return SkipPad((8 - (offset_ + 4) % 8) % 8);
  }

  [[nodiscard]] bool VerifyCrcFooter() {
    if (size_ - offset_ < sizeof(uint32_t)) return false;
    uint32_t want = Crc32cFinish(crc_state_);
    uint32_t stored = 0;
    std::memcpy(&stored, data_ + offset_, sizeof(stored));
    offset_ += sizeof(stored);  // the footer is outside the CRC
    return verify_ ? stored == want : true;
  }

  uint64_t offset() const { return offset_; }
  uint64_t remaining() const { return size_ - offset_; }

 private:
  void Consume(uint64_t n) {
    if (verify_) crc_state_ = Crc32cExtend(crc_state_, data_ + offset_, n);
    offset_ += n;
  }

  [[nodiscard]] bool SkipPad(uint64_t pad) {
    if (pad == 0) return true;
    if (size_ - offset_ < pad) return false;
    for (uint64_t i = 0; i < pad; ++i) {
      if (data_[offset_ + i] != 0) return false;
    }
    Consume(pad);
    return true;
  }

  const uint8_t* data_;
  uint64_t size_;
  uint64_t offset_ = 0;
  bool verify_;
  uint32_t crc_state_ = kCrc32cInit;
};

}  // namespace spine::serde

#endif  // SPINE_COMMON_SERDE_H_
