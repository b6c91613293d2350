// PARDA-style scheme (Gulati et al., FAST'09), ported per §5.1.
//
// PARDA leaves the storage target unmodified (FCFS) and regulates each
// *client's* issue window with a FAST-TCP-like control law driven by the
// observed average end-to-end IO latency:
//
//     w <- (1-gamma) w + gamma ( L_thresh / L_avg ) w
//
// evaluated per estimation epoch, clamped to [1, w_max]. The paper's port
// measures RTT by timestamping the NVMe-oF submission and reading it back
// on completion; here the initiator simply observes completion time minus
// submit time (identical information).
//
// The long client-side feedback loop is exactly what Fig 6 blames for
// PARDA's poor small-IO capacity detection.
#pragma once

#include <algorithm>

#include "baselines/fcfs_policy.h"
#include "common/stats.h"
#include "common/time.h"

namespace gimbal::baselines {

// Target-side: unmodified FCFS pipeline (PARDA's array is dumb).
class PardaPolicy : public FcfsPolicy {
 public:
  using FcfsPolicy::FcfsPolicy;
  std::string name() const override { return "parda"; }
};

struct PardaParams {
  Tick latency_threshold = Milliseconds(2);  // L_thresh
  double gamma = 0.5;                        // smoothing
  double initial_window = 8;
  double max_window = 256;
  Tick epoch = Milliseconds(5);              // window re-estimation period
  double ewma_alpha = 0.125;                 // average-latency smoothing
};

// Client-side window controller: one per (tenant, remote SSD).
class PardaWindow {
 public:
  explicit PardaWindow(PardaParams params = {})
      : params_(params), window_(params.initial_window),
        lat_avg_(params.ewma_alpha) {}

  // Can another IO be issued given `inflight` outstanding?
  bool CanIssue(uint32_t inflight) const {
    return static_cast<double>(inflight) < window_;
  }

  // Feed an observed end-to-end latency; re-evaluates the window once per
  // epoch.
  void OnCompletion(Tick latency, Tick now) {
    lat_avg_.Add(static_cast<double>(latency));
    if (epoch_start_ == 0) epoch_start_ = now;
    if (now - epoch_start_ < params_.epoch) return;
    epoch_start_ = now;
    const double lat = lat_avg_.value();
    if (lat <= 0) return;
    const double ratio = static_cast<double>(params_.latency_threshold) / lat;
    window_ = (1.0 - params_.gamma) * window_ + params_.gamma * ratio * window_;
    window_ = std::clamp(window_, 1.0, params_.max_window);
  }

  double window() const { return window_; }

 private:
  PardaParams params_;
  double window_;
  Ewma lat_avg_;
  Tick epoch_start_ = 0;
};

}  // namespace gimbal::baselines
