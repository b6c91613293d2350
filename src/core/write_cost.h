// Dynamic write-cost estimator (§3.4).
//
// write_cost = achieved-read-bandwidth / achieved-write-bandwidth, i.e. how
// many read-equivalents one written byte costs the device. It cannot be read
// from the SSD, so Gimbal calibrates it online in an ADMI
// (Additive-Decrease, Multiplicative-Increase) fashion driven by write
// latency: while writes are absorbed by the device's DRAM buffer (EWMA
// write latency below Thresh_min) the cost decays by delta toward 1; once
// latency rises, it jumps halfway to the datasheet worst case.
#pragma once

#include "common/time.h"
#include "core/params.h"
#include "obs/obs.h"
#include "obs/schema.h"
#include "sim/simulator.h"

namespace gimbal::core {

class WriteCostEstimator {
 public:
  explicit WriteCostEstimator(const GimbalParams& params)
      : params_(params), cost_(params.write_cost_worst) {}

  // Periodic ADMI update (call every write_cost_period) given the current
  // EWMA write latency. No-ops if no writes were observed yet.
  void PeriodicUpdate(double write_ewma_latency_ns) {
    if (write_ewma_latency_ns <= 0) return;
    const double before = cost_;
    if (write_ewma_latency_ns < static_cast<double>(params_.thresh_min)) {
      cost_ -= params_.write_cost_delta;   // additive decrease
      if (cost_ < 1.0) cost_ = 1.0;        // never cheaper than a read
    } else {
      cost_ = (cost_ + params_.write_cost_worst) / 2.0;  // converge to worst
    }
    if (obs_ && cost_ != before) {
      m_cost_->Set(cost_);
      if (obs_sim_) {
        obs_->tracer.Instant(obs_sim_->now(), obs::schema::kEvWriteCost,
                             obs::Labels::Ssd(ssd_index_),
                             {{"cost", cost_}});
      }
    }
  }

  // Attach the write.cost gauge and wc.update trace events; `sim` supplies
  // their timestamps. The estimator has no invariant hooks.
  void Attach(const obs::Sinks& sinks, const sim::Simulator* sim) {
    obs_ = sinks.obs;
    obs_sim_ = sim;
    ssd_index_ = sinks.label;
    if (!obs_) return;
    m_cost_ = &obs_->metrics.GetGauge(obs::schema::kWriteCost,
                                      obs::Labels::Ssd(ssd_index_));
    m_cost_->Set(cost_);
  }

  double cost() const { return cost_; }
  double worst() const { return params_.write_cost_worst; }

  // Weighted size used by the virtual-slot DRR scheduler (§3.5).
  uint64_t WeightedBytes(bool is_write, uint64_t bytes) const {
    return is_write ? static_cast<uint64_t>(cost_ * static_cast<double>(bytes))
                    : bytes;
  }

 private:
  const GimbalParams& params_;
  double cost_;

  // Observability (null = not observed).
  obs::Observability* obs_ = nullptr;
  const sim::Simulator* obs_sim_ = nullptr;
  int ssd_index_ = -1;
  obs::Gauge* m_cost_ = nullptr;
};

}  // namespace gimbal::core
