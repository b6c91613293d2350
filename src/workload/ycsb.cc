#include "workload/ycsb.h"

namespace gimbal::workload {

const char* ToString(YcsbWorkload w) {
  switch (w) {
    case YcsbWorkload::kA: return "YCSB-A";
    case YcsbWorkload::kB: return "YCSB-B";
    case YcsbWorkload::kC: return "YCSB-C";
    case YcsbWorkload::kD: return "YCSB-D";
    case YcsbWorkload::kE: return "YCSB-E";
    case YcsbWorkload::kF: return "YCSB-F";
  }
  return "?";
}

YcsbGenerator::YcsbGenerator(YcsbSpec spec)
    : spec_(spec), rng_(spec.seed), record_count_(spec.record_count) {
  zipf_domain_ = record_count_;
  zipf_ = std::make_unique<ScrambledZipfian>(zipf_domain_, spec_.zipf_theta);
  latest_skew_ =
      std::make_unique<ZipfianGenerator>(zipf_domain_, spec_.zipf_theta);
}

uint64_t YcsbGenerator::NextZipfKey() {
  // Rebuild the generator when inserts have grown the space by 1/8 (the
  // step is part of the op stream). Its Zeta extends the thread's kept sum,
  // one pow per new key, unless a longer sum is kept; then it sums from 1.
  if (record_count_ > zipf_domain_ + zipf_domain_ / 8) {
    zipf_domain_ = record_count_;
    zipf_ = std::make_unique<ScrambledZipfian>(zipf_domain_, spec_.zipf_theta);
  }
  uint64_t k = zipf_->Next(rng_);
  return k % record_count_;
}

uint64_t YcsbGenerator::NextLatestKey() {
  // "latest": rank-0 of the Zipfian maps to the most recent insert.
  uint64_t back = latest_skew_->Next(rng_) % record_count_;
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
    case YcsbWorkload::kE:
      if (p < 0.95) {
        Op op{YcsbOp::kScan, NextZipfKey()};
        op.scan_length =
            static_cast<uint32_t>(rng_.NextBounded(100)) + 1;
        return op;
      }
      return Op{YcsbOp::kInsert, record_count_++};
    case YcsbWorkload::kF:
      return p < 0.5 ? Op{YcsbOp::kRead, NextZipfKey()}
                     : Op{YcsbOp::kReadModifyWrite, NextZipfKey()};
  }
  return Op{YcsbOp::kRead, 0};
}

}  // namespace gimbal::workload
