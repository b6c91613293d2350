// Bloom filter over 64-bit keys, as RocksDB keeps per SSTable to avoid
// probing files that cannot contain a key. Filters live in client memory
// (RocksDB caches filter blocks), so probes cost no storage IO; false
// positives cause the extra data-block read a real system would pay.
#pragma once

#include <cstdint>
#include <vector>

namespace gimbal::kv {

class BloomFilter {
 public:
  // `expected_keys` with ~10 bits/key gives ~1% false positives.
  explicit BloomFilter(uint64_t expected_keys, int bits_per_key = 10);

  void Add(uint64_t key);
  bool MayContain(uint64_t key) const;

  uint64_t bit_count() const { return bits_.size() * 64; }

 private:
  static uint64_t Hash(uint64_t key, uint64_t seed);

  std::vector<uint64_t> bits_;
  int num_hashes_;
};

}  // namespace gimbal::kv
