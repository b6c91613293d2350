// Immutable sorted-string table (Appendix E).
//
// Entries are kept in host memory (the simulator moves timing, not bytes);
// the table knows its blob placement so lookups issue the same data-block
// IO a real SSTable read would: one page-sized read of the block that
// holds the key's rank. Bloom filters are in-memory, as RocksDB caches
// filter blocks.
//
// A table has one of two in-memory forms, and only this class knows which:
//  - explicit: a sorted entry vector plus a bloom filter (flush and
//    compaction outputs);
//  - range: keys [first, first + count), every one mapped to the same
//    Value (the bottom level BulkLoad installs). Every key in the range is
//    present, so the form stores no entries and no filter: MayContain is
//    exactly KeyInRange, and the rank of a key is `key - first`.
// Both forms answer every query identically for the same contents.
// Callers walk entries with count()/KeyAt()/ValueAt()/RankOf().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "kv/bloom.h"
#include "kv/types.h"

namespace gimbal::kv {

class SsTable {
 public:
  // `id` orders tables by recency (higher = newer data wins in merges).
  // Explicit form over sorted, non-empty `entries`.
  SsTable(uint64_t id, std::vector<std::pair<Key, Value>> entries,
          uint32_t entry_overhead = 16);
  // Range form: `count` >= 1 keys starting at `first`, all holding `value`.
  SsTable(uint64_t id, Key first, uint64_t count, const Value& value,
          uint32_t entry_overhead = 16);

  uint64_t id() const { return id_; }
  Key min_key() const { return KeyAt(0); }
  Key max_key() const { return KeyAt(count_ - 1); }
  uint64_t count() const { return count_; }
  uint64_t data_bytes() const { return data_bytes_; }

  // Entry `i` in key order, i < count().
  Key KeyAt(uint64_t i) const {
    return is_range() ? first_ + i : entries_[i].first;
  }
  const Value& ValueAt(uint64_t i) const {
    return is_range() ? value_ : entries_[i].second;
  }
  // Index of the first entry whose key is >= `key`; count() if none.
  uint64_t RankOf(Key key) const;

  bool KeyInRange(Key key) const {
    return key >= min_key() && key <= max_key();
  }
  // Bloom + range check: false means the key is definitely absent.
  bool MayContain(Key key) const {
    return KeyInRange(key) && (!bloom_ || bloom_->MayContain(key));
  }

  // Ground-truth lookup (what the data block read would deserialize).
  std::optional<Value> Lookup(Key key) const;

  // Byte offset of the data block containing `key`'s rank — which blob in
  // the placement list a point read must touch.
  uint64_t BlockOffsetOf(Key key) const;

  // Blob placement, set by the DB after allocation: chunk i of the file
  // lives at placement[i].
  std::vector<ReplicaPair> placement;

  // The `read_bytes` at file-relative `file_offset`, in both replicas.
  ReplicaPair BlobForOffset(uint64_t file_offset, uint32_t read_bytes) const;

 private:
  bool is_range() const { return entries_.empty(); }

  uint64_t id_;
  std::vector<std::pair<Key, Value>> entries_;  // empty in the range form
  Key first_ = 0;                                // range form only
  uint64_t count_;
  Value value_;                                  // range form only
  uint64_t data_bytes_;
  double bytes_per_entry_;
  std::optional<BloomFilter> bloom_;             // explicit form only
};

using SsTableRef = std::shared_ptr<SsTable>;

}  // namespace gimbal::kv
