#include "workload/ycsb.h"

namespace gimbal::workload {

const char* ToString(YcsbWorkload w) {
  switch (w) {
    case YcsbWorkload::kA: return "YCSB-A";
    case YcsbWorkload::kB: return "YCSB-B";
    case YcsbWorkload::kC: return "YCSB-C";
    case YcsbWorkload::kD: return "YCSB-D";
    case YcsbWorkload::kF: return "YCSB-F";
  }
  return "?";
}

YcsbGenerator::YcsbGenerator(YcsbSpec spec)
    : spec_(spec),
      rng_(spec.seed),
      record_count_(spec.record_count),
      zipf_(spec.record_count, spec.zipf_theta),
      latest_skew_(spec.record_count, spec.zipf_theta) {}

uint64_t YcsbGenerator::NextZipfKey() {
  // Only D inserts, and D draws no Zipfian keys: the domain stays the
  // loaded record count.
  return zipf_.Next(rng_);
}

uint64_t YcsbGenerator::NextLatestKey() {
  // "latest": rank-0 of the Zipfian maps to the most recent insert.
  uint64_t back = latest_skew_.Next(rng_) % record_count_;
  return record_count_ - 1 - back;
}

YcsbGenerator::Op YcsbGenerator::Next() {
  double p = rng_.NextDouble();
  switch (spec_.workload) {
    case YcsbWorkload::kA:
      return p < 0.5 ? Op{YcsbOp::kRead, NextZipfKey()}
                     : Op{YcsbOp::kUpdate, NextZipfKey()};
    case YcsbWorkload::kB:
      return p < 0.95 ? Op{YcsbOp::kRead, NextZipfKey()}
                      : Op{YcsbOp::kUpdate, NextZipfKey()};
    case YcsbWorkload::kC:
      return Op{YcsbOp::kRead, NextZipfKey()};
    case YcsbWorkload::kD:
      if (p < 0.95) return Op{YcsbOp::kRead, NextLatestKey()};
      return Op{YcsbOp::kInsert, record_count_++};
    case YcsbWorkload::kF:
      return p < 0.5 ? Op{YcsbOp::kRead, NextZipfKey()}
                     : Op{YcsbOp::kReadModifyWrite, NextZipfKey()};
  }
  return Op{YcsbOp::kRead, 0};
}

}  // namespace gimbal::workload
