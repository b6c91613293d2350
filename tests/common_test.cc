// Unit tests for common utilities: time helpers, RNG/distributions,
// streaming stats, EWMA, and the latency histogram.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"

namespace gimbal {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(Microseconds(1), 1000);
  EXPECT_EQ(Milliseconds(1), 1000 * 1000);
  EXPECT_EQ(Seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(ToUs(Microseconds(250)), 250.0);
  EXPECT_DOUBLE_EQ(ToMs(Milliseconds(3)), 3.0);
}

TEST(Time, TransferTime) {
  // 4 KiB at 400 MB/s ~ 10.24 us.
  Tick t = TransferTime(4096, 400e6);
  EXPECT_NEAR(static_cast<double>(t), 10240, 2);
  EXPECT_EQ(TransferTime(0, 400e6), 1);  // rounds up
  EXPECT_EQ(TransferTime(100, 0), 0);    // degenerate bandwidth
}

TEST(Time, RateBps) {
  EXPECT_DOUBLE_EQ(RateBps(1000, Seconds(1)), 1000.0);
  EXPECT_DOUBLE_EQ(RateBps(1000, 0), 0.0);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.5);
}

TEST(Zipfian, SkewConcentratesOnHotKeys) {
  Rng rng(17);
  ZipfianGenerator zipf(1000, 0.99);
  std::map<uint64_t, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Next(rng)];
  // Rank-0 key should receive far more than uniform share (0.1%).
  EXPECT_GT(counts[0], n / 100);
  // And counts should be monotone-ish: rank 0 > rank 10 > rank 100.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
}

TEST(Zipfian, StaysInRange) {
  Rng rng(19);
  ZipfianGenerator zipf(50, 0.99);
  for (int i = 0; i < 50000; ++i) EXPECT_LT(zipf.Next(rng), 50u);
}

// Zeta keeps one sum per thread and extends it; every call must equal a
// sum from i = 1 exactly, whatever was computed before it. The calls run on
// a new thread, so the first starts without a kept sum whatever earlier
// tests summed, and each call's path (sum from 1, return the kept sum,
// extend it) is the same in every run.
TEST(Zipfian, ZetaIsOrderIndependent) {
  auto fresh = [](uint64_t n, double theta) {
    double sum = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  };
  const std::pair<uint64_t, double> calls[] = {
      {1000, 0.99},  {1000, 0.99},  {2, 0.99},     {20000, 0.99},
      {22501, 0.99}, {20000, 0.99}, {1, 0.99},     {22501, 0.99},
      {2, 0.5},      {1000, 0.5},   {30000, 0.5},  {25313, 0.99},
      {2, 0.99},     {1, 0.5},      {0, 0.99},     {30000, 0.5},
      {40000, 0.99}, {40001, 0.99}, {40000, 0.99}, {1, 0.99}};
  std::thread([&] {
    for (auto [n, theta] : calls) {
      EXPECT_EQ(Zeta(n, theta), fresh(n, theta))
          << "n " << n << " theta " << theta;
    }
  }).join();
}

TEST(ScrambledZipfian, SpreadsHotKeys) {
  Rng rng(23);
  ScrambledZipfian zipf(1000, 0.99);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next(rng)];
  // The hottest key should not be key 0 systematically (hashing spreads it),
  // but skew must remain: max count far above uniform.
  int max_count = 0;
  for (auto& [k, v] : counts) max_count = std::max(max_count, v);
  EXPECT_GT(max_count, 1000);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  e.Add(100);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 100.0);
}

TEST(Ewma, ConvergesTowardConstant) {
  Ewma e(0.5);
  e.Add(0);
  for (int i = 0; i < 30; ++i) e.Add(100);
  EXPECT_NEAR(e.value(), 100.0, 0.001);
}

TEST(Ewma, WeightsRecentSamples) {
  Ewma e(0.5);
  e.Add(100);
  e.Add(0);  // ewma = 50
  EXPECT_DOUBLE_EQ(e.value(), 50.0);
}

TEST(RateMeter, ComputesRate) {
  RateMeter m;
  m.Add(1000);
  m.Add(1000);
  double rate = m.Roll(0, Seconds(2));
  EXPECT_DOUBLE_EQ(rate, 1000.0);  // 2000 units over 2 s
  EXPECT_EQ(m.accumulated(), 0u);
}

TEST(Histogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, EmptyEveryQuantileDefined) {
  // Zero-count convention shared with obs::Histogram: every quantile of an
  // empty histogram is 0, even for out-of-range or non-finite q.
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.Percentile(1.0), 0);
  EXPECT_EQ(h.Percentile(-1.0), 0);
  EXPECT_EQ(h.Percentile(2.0), 0);
  EXPECT_EQ(h.Percentile(std::nan("")), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, QuantileArgumentClamped) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT_EQ(h.Percentile(-0.5), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(1.5), h.Percentile(1.0));
  EXPECT_EQ(h.Percentile(std::nan("")), h.Percentile(0.0));
}

TEST(Histogram, ExactSmallValues) {
  LatencyHistogram h;
  for (int i = 0; i < 32; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 32u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 31);
  EXPECT_EQ(h.Percentile(0.0), 0);
}

TEST(Histogram, PercentileAccuracy) {
  LatencyHistogram h;
  for (int i = 1; i <= 10000; ++i) h.Record(i);
  // Log-linear buckets guarantee ~3% relative error.
  EXPECT_NEAR(static_cast<double>(h.p50()), 5000.0, 5000 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.p99()), 9900.0, 9900 * 0.04);
  EXPECT_NEAR(h.mean(), 5000.5, 1.0);
}

TEST(Histogram, LargeValues) {
  LatencyHistogram h;
  h.Record(Seconds(100));
  h.Record(Seconds(200));
  EXPECT_GE(h.Percentile(0.99), Seconds(100));
  EXPECT_EQ(h.max(), Seconds(200));
}

TEST(Histogram, NegativeClampedToZero) {
  LatencyHistogram h;
  h.Record(-5);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, Merge) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(10);
  for (int i = 0; i < 100; ++i) b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_LE(a.Percentile(0.25), 11);
  EXPECT_GE(a.Percentile(0.75), 990);
}

class HistogramRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(HistogramRoundTrip, RelativeErrorBounded) {
  LatencyHistogram h;
  int64_t v = GetParam();
  h.Record(v);
  int64_t p = h.Percentile(0.5);
  EXPECT_GE(p, v);  // bucket upper bound
  if (v > 0) {
    EXPECT_LE(static_cast<double>(p - v), std::max<double>(1.0, 0.04 * v));
  }
}

INSTANTIATE_TEST_SUITE_P(Values, HistogramRoundTrip,
                         ::testing::Values(0, 1, 31, 32, 33, 100, 1000, 4095,
                                           4096, 65535, 1 << 20,
                                           Milliseconds(1), Seconds(1),
                                           Seconds(1000)));

// --- Span-storage equivalence -------------------------------------------
// LatencyHistogram stores only the bucket rows it has touched. The oracle
// below is the dense layout it replaced (every one of the 1888 buckets
// always present), kept here so each query of the span histogram can be
// checked against it after every operation.
class DenseHistogram {
 public:
  static constexpr int kSub = 32;
  static constexpr int kBuckets = 59 * kSub;

  void Record(int64_t value) {
    if (value < 0) value = 0;
    ++counts_[BucketIndex(static_cast<uint64_t>(value))];
    ++total_;
    sum_ += value;
    if (value > max_) max_ = value;
    if (value < min_ || total_ == 1) min_ = value;
  }

  void Merge(const DenseHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    if (other.total_ > 0) {
      if (total_ == 0 || other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
    total_ += other.total_;
    sum_ += other.sum_;
  }

  void Reset() { *this = DenseHistogram{}; }

  DenseHistogram Subtract(const DenseHistogram& snapshot) const {
    DenseHistogram out;
    int lo = -1, hi = -1;
    for (int i = 0; i < kBuckets; ++i) {
      out.counts_[i] = counts_[i] - snapshot.counts_[i];
      out.total_ += out.counts_[i];
      if (out.counts_[i] > 0) {
        if (lo < 0) lo = i;
        hi = i;
      }
    }
    out.sum_ = sum_ - snapshot.sum_;
    if (out.total_ > 0) {
      out.min_ = lo > 0 ? BucketUpperBound(lo - 1) + 1 : 0;
      out.max_ = BucketUpperBound(hi);
    }
    return out;
  }

  int64_t Percentile(double q) const {
    if (total_ == 0) return 0;
    if (!(q > 0.0)) q = 0.0;
    if (q > 1.0) q = 1.0;
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total_));
    if (rank >= total_) rank = total_ - 1;
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen > rank) return BucketUpperBound(i);
    }
    return max_;
  }

  uint64_t count() const { return total_; }
  int64_t min() const { return total_ ? min_ : 0; }
  int64_t max() const { return max_; }
  double mean() const {
    return total_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(total_);
  }

 private:
  static int BucketIndex(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    int msb = 63 - __builtin_clzll(v);
    int e = msb - 5;
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

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t total_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

// A span histogram and its dense oracle, always fed the same operations.
struct HistPair {
  LatencyHistogram span;
  DenseHistogram dense;

  void Record(int64_t v) {
    span.Record(v);
    dense.Record(v);
  }
  void Merge(const HistPair& o) {
    span.Merge(o.span);
    dense.Merge(o.dense);
  }
  void Reset() {
    span.Reset();
    dense.Reset();
  }
  HistPair Subtract(const HistPair& snapshot) const {
    return {span.Subtract(snapshot.span), dense.Subtract(snapshot.dense)};
  }
};

void ExpectSameQueries(const HistPair& p, const char* where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(p.span.count(), p.dense.count());
  EXPECT_EQ(p.span.min(), p.dense.min());
  EXPECT_EQ(p.span.max(), p.dense.max());
  EXPECT_EQ(p.span.mean(), p.dense.mean());
  static const double kQs[] = {-1.0, 0.0,   1e-4,  0.001, 0.01, 0.1,
                               0.25, 0.5,   0.75,  0.9,   0.99, 0.999,
                               0.9999, 1.0, 2.0,   std::nan("")};
  for (double q : kQs) {
    EXPECT_EQ(p.span.Percentile(q), p.dense.Percentile(q)) << "q=" << q;
  }
  EXPECT_EQ(p.span.p50(), p.dense.Percentile(0.5));
  EXPECT_EQ(p.span.p999(), p.dense.Percentile(0.999));
}

// Values from one of several magnitude bands, so histograms built from
// different bands hold disjoint or overlapping bucket spans. Band 5 sits
// next to INT64_MAX, in the top row of buckets.
int64_t BandValue(Rng& rng, int band) {
  switch (band) {
    case 0:
      return static_cast<int64_t>(rng.NextBounded(64)) - 32;  // <0, 0, <32
    case 1:
      return 1000 + static_cast<int64_t>(rng.NextBounded(50000));
    case 2:
      return 30000 + static_cast<int64_t>(rng.NextBounded(5000000));
    case 3:
      return int64_t{1} << (20 + rng.NextBounded(20));
    case 4:
      return static_cast<int64_t>(rng.Next() >> (24 + rng.NextBounded(40)));
    default:
      return std::numeric_limits<int64_t>::max() -
             static_cast<int64_t>(rng.NextBounded(1000));
  }
}

// Whether `h` can take `more` samples of at most `top` without its int64
// sum overflowing (samples are clamped to >= 0, so sum <= count * max).
bool SumFits(const HistPair& h, uint64_t more, int64_t top) {
  const __int128 bound = static_cast<__int128>(h.span.count() + more) *
                         std::max(h.span.max(), top);
  return bound <= std::numeric_limits<int64_t>::max();
}

TEST(HistogramSpan, RandomOpsMatchDenseReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng rng(seed);
    std::vector<HistPair> hs(6);
    for (int step = 0; step < 600; ++step) {
      const size_t k = rng.NextBounded(hs.size());
      const size_t j = rng.NextBounded(hs.size());
      switch (rng.NextBounded(8)) {
        case 0:
        case 1:
        case 2: {
          // Mostly the histogram's own band, sometimes any band.
          const int band = rng.NextBounded(4) != 0
                               ? static_cast<int>(k % 5)
                               : static_cast<int>(rng.NextBounded(6));
          const int n = 1 + static_cast<int>(rng.NextBounded(20));
          for (int r = 0; r < n; ++r) {
            const int64_t v = BandValue(rng, band);
            if (!SumFits(hs[k], 1, v)) hs[k].Reset();
            hs[k].Record(v);
          }
          break;
        }
        case 3:
          // j == k merges a histogram into itself.
          if (!SumFits(hs[k], hs[j].span.count(), hs[j].span.max())) {
            hs[k].Reset();
          }
          hs[k].Merge(hs[j]);
          break;
        case 4: {
          // Monotone snapshot: record more, then isolate what came after.
          const HistPair snapshot = hs[k];
          const int band = static_cast<int>(rng.NextBounded(5));
          const int n = static_cast<int>(rng.NextBounded(30));
          for (int r = 0; r < n; ++r) {
            const int64_t v = BandValue(rng, band);
            if (SumFits(hs[k], 1, v)) hs[k].Record(v);
          }
          ExpectSameQueries(hs[k].Subtract(snapshot), "subtract");
          ExpectSameQueries(hs[k].Subtract(hs[k]), "subtract self");
          break;
        }
        case 5:
          hs[k].Reset();
          break;
        case 6:
          hs[k] = hs[j];
          break;
        default: {
          HistPair moved = hs[j];
          hs[k] = std::move(moved);
          break;
        }
      }
      ExpectSameQueries(hs[k], "after op");
    }
  }
}

TEST(HistogramSpan, MergeDisjointOverlappingAndEmptyBothWays) {
  Rng rng(7);
  HistPair low, high, mid, empty, reset;
  for (int i = 0; i < 200; ++i) {
    low.Record(BandValue(rng, 0));
    high.Record(BandValue(rng, 2));
    mid.Record(BandValue(rng, 1));
    reset.Record(BandValue(rng, 3));
  }
  reset.Reset();  // zero counts, span kept
  const HistPair all[] = {low, high, mid, empty, reset};
  for (const HistPair& a : all) {
    for (const HistPair& b : all) {
      HistPair ab = a;
      ab.Merge(b);
      ExpectSameQueries(ab, "a.Merge(b)");
      HistPair ba = b;
      ba.Merge(a);
      ExpectSameQueries(ba, "b.Merge(a)");
    }
  }
}

TEST(HistogramSpan, ResetThenReuse) {
  HistPair p;
  for (int i = 0; i < 100; ++i) p.Record(i * 1000);
  p.Reset();
  ExpectSameQueries(p, "reset");
  for (int i = 0; i < 50; ++i) p.Record(7);  // below the kept span
  p.Record(std::numeric_limits<int64_t>::max() - 1000);  // above it
  ExpectSameQueries(p, "reuse");
}

TEST(HistogramSpan, CopyAndMoveKeepQueriesAndEmptyTheSource) {
  HistPair p;
  for (int i = 0; i < 100; ++i) p.Record(100 + i * 37);
  HistPair copy = p;
  ExpectSameQueries(copy, "copy");
  HistPair moved = std::move(copy);
  ExpectSameQueries(moved, "move");
  EXPECT_EQ(moved.span.p99(), p.span.p99());
  // A moved-from histogram is empty and usable.
  EXPECT_EQ(copy.span.count(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.span.Percentile(0.5), 0);
  copy.span.Record(5);
  EXPECT_EQ(copy.span.count(), 1u);
  EXPECT_EQ(copy.span.Percentile(1.0), 5);
}

TEST(HistogramSpan, StaysSmall) {
  // Counts live behind one vector; a return to in-object dense storage
  // (1888 x 8 bytes) fails here, not only in the benchmark's RSS.
  EXPECT_LE(sizeof(LatencyHistogram), 64u);
}

TEST(Histogram, SubtractIsolatesLaterSamples) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(50);
  const LatencyHistogram before = h;
  for (int i = 0; i < 10; ++i) h.Record(5000);
  const LatencyHistogram window = h.Subtract(before);
  EXPECT_EQ(window.count(), 10u);
  EXPECT_EQ(window.mean(), 5000.0);
  EXPECT_GE(window.Percentile(0.0), 5000);
  EXPECT_LE(window.min(), 5000);
  EXPECT_GE(window.max(), 5000);
  EXPECT_EQ(h.Subtract(h).count(), 0u);
}

TEST(Histogram, SubtractSkipsEmptySnapshotBucketsOutsideSpan) {
  LatencyHistogram snapshot;
  snapshot.Record(Seconds(100));
  snapshot.Reset();  // keeps a span far above h's, all zero
  LatencyHistogram h;
  h.Record(5);
  const LatencyHistogram d = h.Subtract(snapshot);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_EQ(d.Percentile(0.5), 5);
}

TEST(HistogramDeathTest, SubtractRejectsSampleOutsideSpan) {
  LatencyHistogram h;
  h.Record(5);
  LatencyHistogram other;
  other.Record(Seconds(1));
  EXPECT_DEATH(h.Subtract(other), "not an earlier copy");
}

TEST(HistogramDeathTest, SubtractRejectsLargerBucket) {
  LatencyHistogram h;
  h.Record(5);
  LatencyHistogram other;
  other.Record(5);
  other.Record(5);
  EXPECT_DEATH(h.Subtract(other), "not an earlier copy");
}

}  // namespace
}  // namespace gimbal
