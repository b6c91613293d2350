#include "kv/sstable.h"

#include <algorithm>
#include <cassert>

namespace gimbal::kv {

SsTable::SsTable(uint64_t id, std::vector<std::pair<Key, Value>> entries,
                 uint32_t entry_overhead)
    : id_(id),
      entries_(std::move(entries)),
      count_(entries_.size()),
      bloom_(std::in_place, count_) {
  assert(!entries_.empty());
  assert(std::is_sorted(entries_.begin(), entries_.end(),
                        [](const auto& a, const auto& b) {
                          return a.first < b.first;
                        }));
  data_bytes_ = 0;
  for (const auto& [k, v] : entries_) {
    bloom_->Add(k);
    data_bytes_ += v.bytes + entry_overhead;
  }
  bytes_per_entry_ =
      static_cast<double>(data_bytes_) / static_cast<double>(count_);
}

SsTable::SsTable(uint64_t id, Key first, uint64_t count, const Value& value,
                 uint32_t entry_overhead)
    : id_(id),
      first_(first),
      count_(count),
      value_(value),
      data_bytes_(count * uint64_t{value.bytes + entry_overhead}),
      bytes_per_entry_(static_cast<double>(data_bytes_) /
                       static_cast<double>(count)) {
  assert(count > 0);
  assert(first + (count - 1) >= first && "key range wraps");
}

uint64_t SsTable::RankOf(Key key) const {
  if (is_range()) return key <= first_ ? 0 : std::min(key - first_, count_);
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const auto& e, Key k) { return e.first < k; });
  return static_cast<uint64_t>(it - entries_.begin());
}

std::optional<Value> SsTable::Lookup(Key key) const {
  const uint64_t rank = RankOf(key);
  if (rank == count_ || KeyAt(rank) != key) return std::nullopt;
  return ValueAt(rank);
}

uint64_t SsTable::BlockOffsetOf(Key key) const {
  const uint64_t rank = std::min(RankOf(key), count_ - 1);
  uint64_t offset =
      static_cast<uint64_t>(static_cast<double>(rank) * bytes_per_entry_);
  // Align down to the 4 KiB data-block grid.
  return offset & ~uint64_t{4095};
}

ReplicaPair SsTable::BlobForOffset(uint64_t file_offset,
                                   uint32_t read_bytes) const {
  assert(!placement.empty() && "table has no placement");
  uint64_t remaining = file_offset;
  for (const ReplicaPair& r : placement) {
    if (remaining < r.primary.bytes) return r.Slice(remaining, read_bytes);
    remaining -= r.primary.bytes;
  }
  // Offset beyond placement (estimation edge): read the last blob's tail.
  return placement.back().Slice(0, read_bytes);
}

}  // namespace gimbal::kv
