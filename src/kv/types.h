// Vocabulary types for the LSM key-value store and blobstore.
//
// Values carry their byte size and a version stamp instead of a payload:
// the simulator models IO timing, not data movement, and 24 instances x
// 100K x 1 KiB of real bytes would only burn host memory. The stamp lets
// tests verify read-your-writes semantics exactly.
//
// A stored entry is a `std::pair<Key, Value>` of 24 bytes: every memtable
// node, WAL record, merge temporary and explicit SSTable entry has this
// size. Bulk-loaded SSTables store no entries at all (kv/sstable.h's range
// form). Build a Value with designated initializers, so a field reorder
// cannot silently swap `bytes` and `stamp`.
#pragma once

#include <cstdint>
#include <utility>

namespace gimbal::kv {

using Key = uint64_t;

struct Value {
  uint64_t stamp = 0;   // version for correctness checks
  uint32_t bytes = 0;   // logical payload size (drives IO sizes)

  bool operator==(const Value&) const = default;
};

static_assert(sizeof(std::pair<Key, Value>) == 24,
              "KV entries must stay 24 bytes (no padding in Value)");

// Address of one contiguous blob on one remote backend SSD.
struct BlobAddr {
  int backend = -1;
  uint64_t offset = 0;
  uint32_t bytes = 0;

  bool valid() const { return backend >= 0; }
  bool operator==(const BlobAddr&) const = default;
};

// One replicated blob (§4.3): writes go to both copies, reads balance
// across them. `shadow` is invalid when no second backend had room.
struct ReplicaPair {
  BlobAddr primary;
  BlobAddr shadow;

  // `bytes` at `offset` into the blob, in both copies.
  ReplicaPair Slice(uint64_t offset, uint32_t bytes) const {
    ReplicaPair r = *this;
    r.primary.offset += offset;
    r.primary.bytes = bytes;
    if (r.shadow.valid()) {
      r.shadow.offset += offset;
      r.shadow.bytes = bytes;
    }
    return r;
  }
};

}  // namespace gimbal::kv
