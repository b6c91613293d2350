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
  bool tombstone = false;

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

}  // namespace gimbal::kv
