// SSD congestion control with rate pacing (§3.2-3.3, Algorithm 1).
//
// Self-clocked: the switch calls OnCompletion for every SSD completion and
// consults the dual token bucket before every submission. Per-IO-type
// latency monitors turn completion delays into one of four congestion
// states; the target submission rate reacts per Algorithm 1:
//
//   overloaded            -> snap to measured completion rate, discard
//                            bucket tokens, then additive decrease
//   congested             -> additive decrease by the completed IO's size
//   congestion avoidance  -> additive increase by the completed IO's size
//   under-utilized        -> aggressive probe: increase by beta x size
#pragma once

#include "common/stats.h"
#include "core/latency_monitor.h"
#include "core/params.h"
#include "core/token_bucket.h"
#include "nvme/types.h"

namespace gimbal::core {

class RateController {
 public:
  explicit RateController(const GimbalParams& params)
      : params_(params),
        read_monitor_(params),
        write_monitor_(params),
        bucket_(params),
        target_rate_(params.initial_rate) {}

  // Algorithm 1, Completion(): returns the congestion state observed.
  CongestionState OnCompletion(IoType type, Tick latency, uint32_t bytes,
                               Tick now);

  // Algorithm 1, Submission() precondition: refresh buckets, then check.
  // `write_cost` comes from the WriteCostEstimator.
  bool TrySubmit(IoType type, uint64_t bytes, Tick now, double write_cost) {
    bucket_.Update(now, target_rate_, write_cost);
    if (!bucket_.HasTokens(type, bytes)) return false;
    bucket_.Consume(type, bytes);
    return true;
  }

  double target_rate() const { return target_rate_; }
  const LatencyMonitor& monitor(IoType type) const {
    return type == IoType::kRead ? read_monitor_ : write_monitor_;
  }
  const DualTokenBucket& bucket() const { return bucket_; }
  double completion_rate() const { return completion_meter_.last_rate(); }

  // Fault recovery (docs/FAULTS.md): clear both latency EWMAs and their
  // congestion state so post-recovery completions are not judged against
  // fault-era history. Target rate and bucket fill are kept — they re-adapt
  // within a few completions.
  void ResetMonitors() {
    read_monitor_.Reset();
    write_monitor_.Reset();
  }

  // Attach metrics/trace and the invariant checker, propagated to both
  // latency monitors and the token bucket; `sim` timestamps trace events.
  void Attach(const obs::Sinks& sinks, const sim::Simulator* sim);

  // Simulated time until the read bucket could cover `bytes` at the current
  // rate (used by the switch to schedule a poke when pacing stalls with no
  // completions outstanding).
  Tick PacingDelay(IoType type, uint64_t bytes, double write_cost) const;

 private:
  const GimbalParams& params_;
  LatencyMonitor read_monitor_;
  LatencyMonitor write_monitor_;
  DualTokenBucket bucket_;
  double target_rate_;
  RateMeter completion_meter_;
  Tick window_start_ = 0;
  bool window_started_ = false;

  // Observability (null = not observed).
  obs::Observability* obs_ = nullptr;
  int ssd_index_ = -1;
  obs::Gauge* m_target_rate_ = nullptr;
  obs::Gauge* m_completion_rate_ = nullptr;
};

}  // namespace gimbal::core
