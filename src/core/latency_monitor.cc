#include "core/latency_monitor.h"

#include "obs/schema.h"

namespace gimbal::core {

const char* ToString(CongestionState s) {
  switch (s) {
    case CongestionState::kUnderUtilized: return "under-utilized";
    case CongestionState::kCongestionAvoidance: return "congestion-avoidance";
    case CongestionState::kCongested: return "congested";
    case CongestionState::kOverloaded: return "overloaded";
  }
  return "?";
}

LatencyMonitor::LatencyMonitor(const GimbalParams& params)
    : params_(params),
      ewma_(params.alpha_d),
      threshold_(static_cast<double>(params.thresh_max)) {}

void LatencyMonitor::Reset() {
  ewma_.Reset();
  threshold_ = static_cast<double>(params_.thresh_max);
  state_ = CongestionState::kUnderUtilized;
}

void LatencyMonitor::Attach(const obs::Sinks& sinks, IoType type,
                            const sim::Simulator* sim) {
  obs_ = sinks.obs;
  chk_ = sinks.chk;
  obs_sim_ = sim;
  ssd_index_ = sinks.label;
  const bool read = type == IoType::kRead;
  chk_is_read_ = read;
  if (!obs_) return;
  namespace schema = obs::schema;
  const obs::Labels l = obs::Labels::Ssd(ssd_index_);
  obs::MetricsRegistry& reg = obs_->metrics;
  m_ewma_ = &reg.GetGauge(read ? schema::kEwmaRead : schema::kEwmaWrite, l);
  m_thresh_ =
      &reg.GetGauge(read ? schema::kThreshRead : schema::kThreshWrite, l);
  m_state_ = &reg.GetGauge(read ? schema::kStateRead : schema::kStateWrite, l);
  transition_event_ =
      read ? schema::kEvCongestionRead : schema::kEvCongestionWrite;
}

CongestionState LatencyMonitor::Update(Tick latency) {
  ewma_.Add(static_cast<double>(latency));
  const double ewma = ewma_.value();
  const double max = static_cast<double>(params_.thresh_max);
  const double min = static_cast<double>(params_.thresh_min);

  if (ewma > max) {
    // Algorithm 1: thresh = thresh_max; state = overloaded.
    threshold_ = max;
    state_ = CongestionState::kOverloaded;
  } else if (ewma > threshold_) {
    // Congestion signal: back the threshold off halfway to the ceiling so
    // further signals require genuinely higher latency (Reno-style).
    threshold_ = (threshold_ + max) / 2.0;
    state_ = CongestionState::kCongested;
  } else if (ewma > min) {
    // Decay the threshold toward the EWMA so the next latency rise is
    // detected promptly.
    threshold_ -= params_.alpha_t * (threshold_ - ewma);
    state_ = CongestionState::kCongestionAvoidance;
  } else {
    threshold_ -= params_.alpha_t * (threshold_ - ewma);
    state_ = CongestionState::kUnderUtilized;
  }
  // The threshold never drops below the congestion-free floor.
  if (threshold_ < min) threshold_ = min;

  if (chk_) {
    chk_->OnLatencySample(ssd_index_, chk_is_read_, ewma, threshold_, min,
                          max, static_cast<int>(state_));
  }
  if (obs_) {
    m_ewma_->Set(ewma);
    m_thresh_->Set(threshold_);
    const double state_num = static_cast<double>(static_cast<int>(state_));
    if (m_state_->value() != state_num && obs_sim_) {
      obs_->tracer.Instant(obs_sim_->now(), transition_event_,
                           obs::Labels::Ssd(ssd_index_),
                           {{"state", state_num},
                            {"ewma_ns", ewma},
                            {"thresh_ns", threshold_}});
    }
    m_state_->Set(state_num);
  }
  return state_;
}

}  // namespace gimbal::core
