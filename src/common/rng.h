// Deterministic random number generation for simulation workloads.
//
// xoshiro256** core generator plus the distributions the workload layer
// needs (uniform, exponential, Zipfian, YCSB "latest"). Everything is
// seed-reproducible so experiments are exactly repeatable.
#pragma once

#include <cmath>
#include <cstdint>

namespace gimbal {

// xoshiro256** by Blackman & Vigna (public domain reference implementation
// re-expressed). Fast, high-quality, and much cheaper than std::mt19937_64.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound == 0 returns 0.
  uint64_t NextBounded(uint64_t bound) {
    if (bound == 0) return 0;
    // Lemire's multiply-shift rejection-free approximation is fine here; the
    // simulator does not need exact uniformity beyond 2^-64 bias.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Exponentially distributed value with the given mean.
  double NextExponential(double mean) {
    double u = NextDouble();
    if (u >= 1.0) u = 0.9999999999999999;
    return -mean * std::log1p(-u);
  }

  bool NextBool(double p_true) { return NextDouble() < p_true; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t state_[4];
};

// Zeta(n, theta) = sum of 1 / i^theta for i = 1..n, the Zipfian
// normalising constant. Each thread keeps the sum with the largest n it has
// computed. A call for that n and theta returns it; a call for a larger n
// and the same theta adds the missing terms to it, left to right, in the
// order a loop from i = 1 adds them, so the result is bit-identical to a
// fresh sum. A smaller n or another theta sums from i = 1, and only a sum
// at least as long as the kept one replaces it: ZipfianGenerator's
// Zeta(2, theta) never evicts its Zeta(n, theta). Thread-local, so no call
// takes a lock and threads never share a sum.
inline double Zeta(uint64_t n, double theta) {
  struct Sum {
    uint64_t n = 0;
    double theta = 0, value = 0;
  };
  thread_local Sum kept;
  const bool extend = theta == kept.theta && n >= kept.n;
  double sum = extend ? kept.value : 0;
  for (uint64_t i = extend ? kept.n + 1 : 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  if (n >= kept.n) kept = Sum{n, theta, sum};
  return sum;
}

// Zipfian generator over [0, n) using the Gray/Jain rejection-inversion
// method popularized by the YCSB reference implementation. theta is the
// skew (YCSB default 0.99).
//
// Cost: construction is one Zeta(n, theta) plus three pow calls. That Zeta
// costs n pow calls when it sums from i = 1, none when the thread's kept sum
// has the same n and theta (YCSB builds every client's generators over one
// key count), and n - m when it extends a kept sum of m terms. A draw is
// one Rng::NextDouble plus, for ranks above 1, one pow.
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta = 0.99) : n_(n) {
    zeta_n_ = Zeta(n_, theta);
    const double zeta2 = Zeta(2, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta)) /
           (1.0 - zeta2 / zeta_n_);
    rank1_bound_ = 1.0 + std::pow(0.5, theta);
  }

  uint64_t Next(Rng& rng) const {
    double u = rng.NextDouble();
    double uz = u * zeta_n_;
    if (uz < 1.0) return 0;
    if (uz < rank1_bound_) return 1;
    return static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }

  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  double zeta_n_, alpha_, eta_;
  double rank1_bound_;  // 1 + 0.5^theta: uz in [1, rank1_bound_) is rank 1
};

// "Scrambled" Zipfian: hashes the Zipfian rank so hot keys are spread over
// the key space, matching YCSB's ScrambledZipfianGenerator.
class ScrambledZipfian {
 public:
  explicit ScrambledZipfian(uint64_t n, double theta = 0.99)
      : zipf_(n, theta), n_(n) {}

  uint64_t Next(Rng& rng) const {
    uint64_t r = zipf_.Next(rng);
    return Fnv1a(r) % n_;
  }

 private:
  static uint64_t Fnv1a(uint64_t v) {
    uint64_t h = 0xCBF29CE484222325ull;
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 0x100000001B3ull;
    }
    return h;
  }
  ZipfianGenerator zipf_;
  uint64_t n_;
};

}  // namespace gimbal
