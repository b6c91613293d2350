// Per-IO-type latency monitor implementing Gimbal's delay-based congestion
// detection (§3.2 and the update_latency procedure of Algorithm 1).
//
// Keeps an EWMA of completion latencies and a *dynamic* threshold that
// decays toward the EWMA (so congestion is detected promptly for small IOs)
// and jumps halfway to Thresh_max when exceeded (so signals become more
// frequent as latency approaches the ceiling).
#pragma once

#include "check/invariants.h"
#include "common/stats.h"
#include "common/time.h"
#include "core/params.h"
#include "nvme/types.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace gimbal::core {

// The four congestion states of §3.3.
enum class CongestionState {
  kUnderUtilized,       // ewma < Thresh_min
  kCongestionAvoidance, // Thresh_min <= ewma < Thresh_cur
  kCongested,           // Thresh_cur <= ewma < Thresh_max
  kOverloaded,          // ewma >= Thresh_max
};

const char* ToString(CongestionState s);

class LatencyMonitor {
 public:
  explicit LatencyMonitor(const GimbalParams& params);

  // Record a completion latency; returns the resulting congestion state.
  // Mirrors Algorithm 1's update_latency line by line.
  CongestionState Update(Tick latency);

  double ewma_latency() const { return ewma_.initialized() ? ewma_.value() : 0; }
  double threshold() const { return threshold_; }
  CongestionState state() const { return state_; }

  void Reset();

  // Attach metrics/trace and the invariant checker, which sanity-checks
  // EWMA/threshold/state on every Update() (§3.2, docs/TESTING.md). `type`
  // selects the read or write metric family; `sim` supplies timestamps for
  // state-transition trace events.
  void Attach(const obs::Sinks& sinks, IoType type, const sim::Simulator* sim);

 private:
  const GimbalParams& params_;
  Ewma ewma_;
  double threshold_;
  CongestionState state_ = CongestionState::kUnderUtilized;

  // Observability (null = not observed).
  check::InvariantChecker* chk_ = nullptr;
  bool chk_is_read_ = true;
  obs::Observability* obs_ = nullptr;
  const sim::Simulator* obs_sim_ = nullptr;
  int ssd_index_ = -1;
  const char* transition_event_ = nullptr;
  obs::Gauge* m_ewma_ = nullptr;
  obs::Gauge* m_thresh_ = nullptr;
  obs::Gauge* m_state_ = nullptr;
};

}  // namespace gimbal::core
