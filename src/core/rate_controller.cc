#include "core/rate_controller.h"

#include <algorithm>

#include "obs/schema.h"

namespace gimbal::core {

namespace {
// Generous ceiling: far above any modeled device, merely prevents the
// under-utilized probe from pushing the float to absurd magnitudes.
constexpr double kMaxRate = 64e9;
}  // namespace

CongestionState RateController::OnCompletion(IoType type, Tick latency,
                                             uint32_t bytes, Tick now) {
  // Roll the completion-rate measurement window.
  if (!window_started_) {
    window_started_ = true;
    window_start_ = now;
  }
  completion_meter_.Add(bytes);
  if (now - window_start_ >= params_.completion_rate_window) {
    completion_meter_.Roll(window_start_, now);
    window_start_ = now;
  }

  LatencyMonitor& mon =
      type == IoType::kRead ? read_monitor_ : write_monitor_;
  CongestionState state = mon.Update(latency);

  const double size = static_cast<double>(bytes);
  switch (state) {
    case CongestionState::kOverloaded: {
      // The device is saturated far beyond the knee: incremental decrease
      // will not converge. Snap to the measured completion rate and keep
      // draining (Algorithm 1 lines 3-5 + 6-7).
      double cpl_rate = completion_meter_.last_rate();
      if (cpl_rate > 0) target_rate_ = cpl_rate;
      bucket_.DiscardTokens();
      target_rate_ -= size;
      break;
    }
    case CongestionState::kCongested:
      target_rate_ -= size;
      break;
    case CongestionState::kCongestionAvoidance:
      target_rate_ += size;
      break;
    case CongestionState::kUnderUtilized:
      target_rate_ += params_.beta * size;
      break;
  }
  target_rate_ = std::clamp(target_rate_, params_.min_rate, kMaxRate);

  if (obs_) {
    const double before = m_target_rate_->value();
    m_target_rate_->Set(target_rate_);
    m_completion_rate_->Set(completion_meter_.last_rate());
    // One rate up/down decision per completion (Algorithm 1).
    obs_->tracer.Instant(now, obs::schema::kEvRateUpdate,
                         obs::Labels::Ssd(ssd_index_),
                         {{"bps", target_rate_},
                          {"dir", target_rate_ > before   ? 1.0
                                  : target_rate_ < before ? -1.0
                                                          : 0.0},
                          {"state", static_cast<double>(
                               static_cast<int>(state))}});
  }
  return state;
}

void RateController::Attach(const obs::Sinks& sinks,
                            const sim::Simulator* sim) {
  obs_ = sinks.obs;
  ssd_index_ = sinks.label;
  read_monitor_.Attach(sinks, IoType::kRead, sim);
  write_monitor_.Attach(sinks, IoType::kWrite, sim);
  bucket_.Attach(sinks);
  if (!obs_) return;
  const obs::Labels l = obs::Labels::Ssd(ssd_index_);
  m_target_rate_ = &obs_->metrics.GetGauge(obs::schema::kTargetRate, l);
  m_completion_rate_ =
      &obs_->metrics.GetGauge(obs::schema::kCompletionRate, l);
  m_target_rate_->Set(target_rate_);
}

Tick RateController::PacingDelay(IoType type, uint64_t bytes,
                                 double write_cost) const {
  // The bucket models the Algorithm-4 split itself: its ETA runs at the
  // per-bucket share until the sibling bucket fills and spills, then at
  // the full target rate — so the poke lands when the tokens actually
  // exist instead of up to wc x early. Target rate and write cost can
  // drift while waiting; the pump simply re-polls if the estimate aged.
  const Tick eta = bucket_.RefillEta(type, bytes, target_rate_, write_cost);
  if (eta == DualTokenBucket::kNever) return Milliseconds(1);
  return std::min<Tick>(eta, Milliseconds(10));
}

}  // namespace gimbal::core
