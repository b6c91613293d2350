// Arrival processes for open-loop traffic.
//
// Three stacked rate modulations over a base Poisson process:
//
//   * Poisson    — exponential gaps at the base rate (the default; with no
//                  modulation configured the generator draws exactly one
//                  exponential per arrival, byte-compatible with the old
//                  OpenLoopWorker's schedule).
//   * MMPP burst — a 2-state Markov-modulated Poisson process: the rate is
//                  multiplied by `burst_multiplier` while the process is in
//                  its ON state. Dwell times are exponential; the ON-state
//                  mean is `burst_mean_duration` and the OFF-state mean is
//                  derived so the stationary fraction of time spent ON is
//                  `burst_fraction`:  off_mean = on_mean * (1 - f) / f.
//   * Diurnal    — a deterministic sinusoid: factor(t) = 1 + A sin(2πt/P),
//                  modelling the day/night swing of a production tenant
//                  population (squeezed into simulated milliseconds).
//
// Time-varying rates are sampled exactly by Lewis & Shedler thinning:
// candidate gaps are drawn at the peak rate r_max = base x max-factor and
// each candidate is accepted with probability r(t)/r_max, which yields a
// non-homogeneous Poisson process with intensity r(t) — no discretization
// error at modulation-state boundaries.
//
// Determinism: all randomness flows through the caller-owned Rng, and MMPP
// state advances lazily as a pure function of (rng sequence, query times),
// so a given seed reproduces the same arrival schedule on any engine.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "nvme/types.h"

namespace gimbal::workload {

struct ArrivalSpec {
  // MMPP burst modulation; 1.0 = pure Poisson (no burst state machine).
  double burst_multiplier = 1.0;
  double burst_fraction = 0.1;          // stationary fraction of time ON
  Tick burst_mean_duration = Milliseconds(5);  // mean ON dwell

  // Diurnal modulation; period 0 disables. Amplitude in [0, 1).
  Tick diurnal_period = 0;
  double diurnal_amplitude = 0.0;

  bool Modulated() const {
    return burst_multiplier != 1.0 || diurnal_period > 0;
  }
};

class ArrivalProcess {
 public:
  explicit ArrivalProcess(ArrivalSpec spec, uint64_t burst_seed = 0x9bad5eedULL)
      : spec_(spec), burst_rng_(burst_seed) {
    assert(spec_.burst_multiplier >= 1.0);
    assert(spec_.burst_fraction > 0.0 && spec_.burst_fraction < 1.0);
    assert(spec_.diurnal_amplitude >= 0.0 && spec_.diurnal_amplitude < 1.0);
  }

  const ArrivalSpec& spec() const { return spec_; }

  // Instantaneous rate multiplier at simulated time `now`. Advances the
  // MMPP state machine as far as `now`; queries must be non-decreasing in
  // time (each caller naturally asks at its own arrival instants).
  double Factor(Tick now) {
    double f = 1.0;
    if (spec_.burst_multiplier > 1.0 && Bursting(now)) {
      f *= spec_.burst_multiplier;
    }
    if (spec_.diurnal_period > 0) {
      f *= 1.0 + spec_.diurnal_amplitude *
                     std::sin(2.0 * kPi * static_cast<double>(now) /
                              static_cast<double>(spec_.diurnal_period));
    }
    return f;
  }

  // Upper bound of Factor over all t (the thinning envelope).
  double PeakFactor() const {
    double f = spec_.burst_multiplier > 1.0 ? spec_.burst_multiplier : 1.0;
    if (spec_.diurnal_period > 0) f *= 1.0 + spec_.diurnal_amplitude;
    return f;
  }

  // Gap from `now` to the next arrival of a process with base rate
  // `base_iops`, modulated by this spec. Never returns 0.
  Tick NextGap(double base_iops, Tick now, Rng& rng) {
    assert(base_iops > 0);
    if (!spec_.Modulated()) {
      // Fast path == the historical Poisson generator, draw for draw.
      const double gap_ns = rng.NextExponential(kNsPerSec / base_iops);
      return static_cast<Tick>(gap_ns) + 1;
    }
    const double peak = base_iops * PeakFactor();
    Tick t = now;
    // Thinning: bounded rejection loop. The acceptance probability is
    // factor/peak >= (1-A)/(mult*(1+A)) > 0, so the bound is never the
    // expected path; it only guards degenerate configurations.
    for (int i = 0; i < 1024; ++i) {
      t += static_cast<Tick>(rng.NextExponential(kNsPerSec / peak)) + 1;
      const double accept = Factor(t) / PeakFactor();
      if (rng.NextDouble() < accept) break;
    }
    return t - now;
  }

 private:
  static constexpr double kPi = 3.14159265358979323846;

  // Advance the 2-state dwell machine to `now` and report the state.
  bool Bursting(Tick now) {
    while (state_until_ <= now) {
      on_ = !on_;
      const double mean = on_ ? OnMean() : OffMean();
      state_until_ += static_cast<Tick>(burst_rng_.NextExponential(mean)) + 1;
    }
    return on_;
  }
  double OnMean() const {
    return static_cast<double>(spec_.burst_mean_duration);
  }
  double OffMean() const {
    return OnMean() * (1.0 - spec_.burst_fraction) / spec_.burst_fraction;
  }

  ArrivalSpec spec_;
  Rng burst_rng_;  // dedicated stream: MMPP dwells are schedule-independent
  bool on_ = false;
  Tick state_until_ = 0;
};

// Heavy-tailed per-tenant rate assignment for large populations. A handful
// of tenants carry most of the offered load — the regime where fairness
// machinery earns its keep (OSMOSIS's observation; PAPERS.md).
enum class RateDist {
  kUniform,  // every session offers the mean
  kPareto,   // sampled: Pareto(alpha) with the requested mean, clamped
};

struct RatePlan {
  RateDist dist = RateDist::kPareto;
  double mean_iops = 20.0;
  double pareto_alpha = 1.5;  // tail index; must be > 1 for a finite mean
  // Clamp on any single session's rate, as a multiple of the mean; keeps a
  // lucky Pareto draw from dominating the aggregate offered load.
  double max_multiple = 1000.0;
};

// One session's rate. Deterministic given (plan, u), where `u` is a
// uniform draw the caller supplies (used by kPareto only).
inline double SessionRate(const RatePlan& plan, double u) {
  double rate = plan.mean_iops;
  switch (plan.dist) {
    case RateDist::kUniform:
      break;
    case RateDist::kPareto: {
      // Pareto with mean m: scale x_m = m (alpha-1)/alpha, then
      // x = x_m (1-u)^(-1/alpha).
      const double alpha = plan.pareto_alpha;
      const double x_m = plan.mean_iops * (alpha - 1.0) / alpha;
      const double clamped_u = u >= 1.0 ? 0.999999999 : u;
      rate = x_m * std::pow(1.0 - clamped_u, -1.0 / alpha);
      break;
    }
  }
  const double cap = plan.mean_iops * plan.max_multiple;
  if (rate > cap) rate = cap;
  if (rate < 0.01) rate = 0.01;  // a session must make progress
  return rate;
}

}  // namespace gimbal::workload
