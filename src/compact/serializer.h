// Serialization of CompactSpineIndex to a self-contained disk image.
//
// SPINE is self-contained: the vertebra labels encode the original
// string, so loading the image is all a reader needs (the paper's
// "the data string is not required any more" property).

#ifndef SPINE_COMPACT_SERIALIZER_H_
#define SPINE_COMPACT_SERIALIZER_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "common/status.h"
#include "compact/compact_spine.h"

namespace spine {

// Writes the index to `path`, replacing any existing file.
Status SaveCompactSpine(const CompactSpineIndex& index,
                        const std::string& path);

// Loads an index previously written by SaveCompactSpine into owned
// memory: the file is read whole and parsed by
// LoadCompactSpineFromMemory (the one parser), then the tables are
// copied out of the buffer. Fails with kCorruption on bad
// magic/version/truncated data; the message names `path`.
Result<CompactSpineIndex> LoadCompactSpine(const std::string& path);

// Stream writer, used to embed an index image inside a larger file
// (the generalized multi-string index). An embedded image must start at
// an 8-aligned stream offset so the loader below can point into it (v4
// images align their arrays relative to the image start).
Status SaveCompactSpineToStream(const CompactSpineIndex& index,
                                std::ostream& out);

// The image parser: deserializes an image already in memory (a heap
// read or a mapping), pointing the index's flat tables INTO
// [data, data + size) instead of copying. `data` must be 8-aligned.
// `keepalive` is retained by the returned index for as long as any
// table borrows from the buffer (pass the buffer's owner; pass nullptr
// only when the caller guarantees the buffer outlives the index).
// With verify=true the whole-image CRC and structural Validate() run;
// verify=false (mmap-noverify) skips both for O(tables) open cost and
// keeps only the bounds/geometry checks. Trailing bytes after the CRC
// footer are tolerated. core::Artifact::Parse is the opener-side
// wrapper: it names the path in errors and owns the tables after a
// heap read.
Result<CompactSpineIndex> LoadCompactSpineFromMemory(
    const uint8_t* data, uint64_t size, bool verify,
    std::shared_ptr<const void> keepalive);

}  // namespace spine

#endif  // SPINE_COMPACT_SERIALIZER_H_
