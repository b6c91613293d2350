// Latency histogram with HDR-style log-linear bucketing.
//
// Buckets are arranged as 59 exponent rows x 32 linear sub-buckets (1888
// buckets), giving ~3% relative error across the full int64 range. This is
// what every worker and every bench uses to report avg/p50/p99/p99.9
// latencies.
//
// Storage: counts are kept only for the contiguous span of rows the
// histogram has touched — a vector plus the index of its first bucket,
// grown a whole 32-bucket row at a time. An empty histogram allocates
// nothing, one holding a narrow latency band costs a few rows, and the
// worst case is the dense 1888 buckets. Record is O(1) with one span
// compare on its fast path; Merge, Subtract and Percentile are O(stored
// span). Reset zeroes in place and keeps the span, so a histogram that is
// reused (e.g. a metrics series across measurement windows) does not
// reallocate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace gimbal {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 5;                  // 32 sub-buckets
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kExponents = 64 - kSubBits;    // enough for int64
  static constexpr int kBuckets = kExponents * kSub;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = default;
  LatencyHistogram& operator=(const LatencyHistogram&) = default;
  // A moved-from histogram is empty, not a histogram whose totals outlive
  // its moved-away counts (Percentile relies on total_ == sum of counts).
  LatencyHistogram(LatencyHistogram&& other) noexcept {
    *this = std::move(other);
  }
  LatencyHistogram& operator=(LatencyHistogram&& other) noexcept {
    counts_ = std::exchange(other.counts_, {});
    base_ = std::exchange(other.base_, 0);
    total_ = std::exchange(other.total_, 0);
    sum_ = std::exchange(other.sum_, 0);
    min_ = std::exchange(other.min_, 0);
    max_ = std::exchange(other.max_, 0);
    return *this;
  }

  void Record(int64_t value) {
    if (value < 0) value = 0;
    const int idx = BucketIndex(static_cast<uint64_t>(value));
    // One unsigned compare: an index below base_ wraps past size().
    const auto i = static_cast<unsigned>(idx - base_);
    if (i < counts_.size()) {
      ++counts_[i];
    } else {
      Cover(idx, idx + 1);
      ++counts_[idx - base_];
    }
    ++total_;
    sum_ += value;
    if (value > max_) max_ = value;
    if (value < min_ || total_ == 1) min_ = value;
  }

  void Merge(const LatencyHistogram& other) {
    if (other.total_ > 0) {
      Cover(other.base_, other.span_end());
      uint64_t* dst = counts_.data() + (other.base_ - base_);
      for (size_t i = 0; i < other.counts_.size(); ++i) {
        dst[i] += other.counts_[i];
      }
      if (total_ == 0 || other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
    total_ += other.total_;
    sum_ += other.sum_;
  }

  void Reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
  }

  // Bucket-wise difference against an earlier snapshot of this histogram
  // (every snapshot bucket count <= the corresponding one here — i.e. a
  // copy taken before a window of interest on a monotonically-recording
  // histogram). Isolates the samples recorded since the snapshot, e.g. the
  // read tail inside a fault window. min/max degrade to bucket resolution:
  // the removed samples' exact extremes are unrecoverable. A snapshot that
  // breaks the precondition aborts in every build type.
  LatencyHistogram Subtract(const LatencyHistogram& snapshot) const {
    LatencyHistogram out;
    out.counts_ = counts_;
    out.base_ = base_;
    for (size_t j = 0; j < snapshot.counts_.size(); ++j) {
      const uint64_t c = snapshot.counts_[j];
      if (c == 0) continue;
      const int idx = snapshot.base_ + static_cast<int>(j);
      const auto i = static_cast<unsigned>(idx - base_);
      if (i >= out.counts_.size() || c > out.counts_[i]) {
        SubtractMismatch(idx, c);
      }
      out.counts_[i] -= c;
    }
    int lo = -1, hi = -1;
    for (size_t i = 0; i < out.counts_.size(); ++i) {
      if (out.counts_[i] == 0) continue;
      out.total_ += out.counts_[i];
      if (lo < 0) lo = base_ + static_cast<int>(i);
      hi = base_ + static_cast<int>(i);
    }
    out.sum_ = sum_ - snapshot.sum_;
    if (out.total_ > 0) {
      out.min_ = lo > 0 ? BucketUpperBound(lo - 1) + 1 : 0;
      out.max_ = BucketUpperBound(hi);
    }
    return out;
  }

  // Value at quantile q, clamped into [0,1]. Returns an upper bound of the
  // bucket that contains the q-th sample (standard HDR semantics). An empty
  // histogram has every quantile defined as 0, as are the mean, min and max
  // of nothing (never NaN).
  int64_t Percentile(double q) const {
    if (total_ == 0) return 0;
    if (!(q > 0.0)) q = 0.0;  // also catches NaN
    if (q > 1.0) q = 1.0;
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total_));
    if (rank >= total_) rank = total_ - 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > rank) return BucketUpperBound(base_ + static_cast<int>(i));
    }
    return max_;
  }

  int64_t p50() const { return Percentile(0.50); }
  int64_t p99() const { return Percentile(0.99); }
  int64_t p999() const { return Percentile(0.999); }

  uint64_t count() const { return total_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return total_ ? min_ : 0; }
  int64_t max() const { return max_; }
  double mean() const {
    return total_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(total_);
  }

 private:
  // Values < 32 get exact buckets [0..31]. Larger values are shifted right
  // until they fit in [32, 63]; the shift amount e and the 5 bits below the
  // msb identify the bucket, which spans 2^e consecutive values.
  static int BucketIndex(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    int msb = 63 - __builtin_clzll(v);
    int e = msb - kSubBits;  // >= 0
    int sub = static_cast<int>(v >> e) & (kSub - 1);
    int idx = (e + 1) * kSub + sub;
    return idx < kBuckets ? idx : kBuckets - 1;
  }

  static int64_t BucketUpperBound(int index) {
    if (index < kSub) return index;
    int e = index / kSub - 1;
    uint64_t sub = static_cast<uint64_t>(index & (kSub - 1));
    uint64_t lower = (uint64_t{kSub} | sub) << e;
    uint64_t width = uint64_t{1} << e;
    return static_cast<int64_t>(lower + width - 1);
  }

  int span_end() const { return base_ + static_cast<int>(counts_.size()); }

  // Widen the stored span, in whole rows, to include buckets [lo, hi).
  // Off the Record fast path: a histogram grows at most kExponents times.
  [[gnu::noinline]] void Cover(int lo, int hi) {
    lo &= ~(kSub - 1);
    hi = (hi + kSub - 1) & ~(kSub - 1);
    if (counts_.empty()) base_ = lo;
    if (lo >= base_ && hi <= span_end()) return;
    lo = std::min(lo, base_);
    hi = std::max(hi, span_end());
    std::vector<uint64_t> grown(static_cast<size_t>(hi - lo));
    std::copy(counts_.begin(), counts_.end(), grown.begin() + (base_ - lo));
    counts_ = std::move(grown);
    base_ = lo;
  }

  [[noreturn, gnu::noinline]] static void SubtractMismatch(int bucket,
                                                           uint64_t count) {
    std::fprintf(stderr,
                 "LatencyHistogram::Subtract: snapshot holds %llu samples in "
                 "bucket %d (<= %lld), more than this histogram; the "
                 "snapshot is not an earlier copy of it\n",
                 static_cast<unsigned long long>(count), bucket,
                 static_cast<long long>(BucketUpperBound(bucket)));
    std::abort();
  }

  std::vector<uint64_t> counts_;  // buckets [base_, base_ + size())
  int base_ = 0;                  // a multiple of kSub
  uint64_t total_ = 0;            // == sum of counts_
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

}  // namespace gimbal
