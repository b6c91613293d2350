// YCSB core-workload generators (Cooper et al., SoCC'10), used by the
// RocksDB case study (§5.6): workloads A, B, C, D and F with the paper's
// configuration (1 KiB values, Zipfian skew 0.99).
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace gimbal::workload {

enum class YcsbOp { kRead, kUpdate, kInsert, kReadModifyWrite };

enum class YcsbWorkload { kA, kB, kC, kD, kF };

const char* ToString(YcsbWorkload w);

struct YcsbSpec {
  YcsbWorkload workload = YcsbWorkload::kA;
  uint64_t record_count = 100'000;
  uint32_t value_bytes = 1024;
  double zipf_theta = 0.99;
  uint64_t seed = 1;
};

// Stateful per-client generator. Thread-free (the simulator is single
// threaded); D's inserts grow the keyspace, and its reads follow the
// "latest" distribution over it. The other workloads draw Zipfian keys
// over the loaded records.
class YcsbGenerator {
 public:
  explicit YcsbGenerator(YcsbSpec spec);

  struct Op {
    YcsbOp op;
    uint64_t key;
  };
  Op Next();

  uint64_t record_count() const { return record_count_; }
  const YcsbSpec& spec() const { return spec_; }

 private:
  uint64_t NextZipfKey();
  uint64_t NextLatestKey();

  YcsbSpec spec_;
  Rng rng_;
  uint64_t record_count_;
  ScrambledZipfian zipf_;
  ZipfianGenerator latest_skew_;
};

}  // namespace gimbal::workload
