// The Gimbal storage switch pipeline for one SSD (§3, Figure 5).
//
// Composition of the paper's four techniques:
//   ingress  — per-tenant priority queues feeding a virtual-slot DRR
//              scheduler (DrrScheduler / TenantState),
//   egress   — delay-based congestion control with dual-token-bucket rate
//              pacing (RateController),
//   sidecar  — the ADMI write-cost estimator informing both the scheduler's
//              weighted sizes and the bucket split (WriteCostEstimator),
//   feedback — per-tenant credits piggybacked on completions for the
//              end-to-end flow control (§3.6) and exposed through the
//              per-SSD virtual view (§3.7).
//
// Self-clocked per Algorithm 1: Pump() runs on every request arrival and
// every SSD completion; when pacing (not workload) is the bottleneck a
// one-shot poke is scheduled for the token-refill time.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/drr_scheduler.h"
#include "core/io_policy.h"
#include "core/params.h"
#include "core/rate_controller.h"
#include "core/write_cost.h"

namespace gimbal::core {

// Read/write headroom of one SSD as exposed to clients (§3.7). Clients use
// it for rate limiting, load balancing and prioritization decisions.
struct VirtualView {
  double read_headroom_bps = 0;   // paced read bandwidth currently offered
  double write_headroom_bps = 0;  // paced write bandwidth currently offered
  uint32_t credits = 0;           // this tenant's current total credit
  CongestionState state = CongestionState::kUnderUtilized;
};

class GimbalSwitch : public PolicyBase {
 public:
  GimbalSwitch(sim::Simulator& sim, ssd::BlockDevice& device,
               GimbalParams params = {});

  // IoPolicy ------------------------------------------------------------------
  void OnRequest(const IoRequest& req) override;
  void OnTenantDisconnect(TenantId tenant) override;
  void OnSsdHealthChange(fault::SsdHealth health) override;
  uint32_t CreditFor(TenantId tenant) const override {
    return scheduler_.CreditFor(tenant);
  }
  std::string name() const override { return "gimbal"; }
  void AttachObservability(obs::Observability* obs, int ssd_index) override;
  void AttachChecker(check::InvariantChecker* chk, int ssd_index) override;

  // Per-SSD virtual view for `tenant` (§3.7).
  VirtualView View(TenantId tenant) const;

  // Introspection for tests and the Fig 9/17/18 timelines.
  const RateController& rate_controller() const { return rate_; }
  const WriteCostEstimator& write_cost() const { return write_cost_; }
  const DrrScheduler& scheduler() const { return scheduler_; }
  const GimbalParams& params() const { return params_; }
  uint32_t io_outstanding() const { return io_outstanding_; }
  fault::SsdHealth ssd_health() const { return health_; }

  struct SwitchStats {
    uint64_t requests = 0;
    uint64_t completions = 0;
    uint64_t congestion_signals = 0;
    uint64_t overload_events = 0;
    uint64_t pacing_stalls = 0;
  };
  const SwitchStats& stats() const { return stats_; }

 private:
  void Pump();
  void OnDeviceCompletion(const IoRequest& req,
                          const ssd::DeviceCompletion& dc,
                          uint64_t slot_id) override;
  void SchedulePoke(Tick delay);
  void MaybeUpdateWriteCost();

  GimbalParams params_;
  WriteCostEstimator write_cost_;
  RateController rate_;
  DrrScheduler scheduler_;

  // Head-of-line request dequeued from the DRR but awaiting bucket tokens
  // (Gimbal does not reorder after the scheduler; see Appendix C.1).
  std::optional<DrrScheduler::Scheduled> head_;

  uint32_t io_outstanding_ = 0;
  // Last health transition observed from the fault layer; stays kHealthy
  // forever when no FaultInjector is wired up.
  fault::SsdHealth health_ = fault::SsdHealth::kHealthy;
  // The armed pacing poke (fires Pump when tokens should have accrued).
  // One poke at a time: re-arming while active would only move the wakeup
  // later than the tokens need.
  sim::TimerHandle poke_timer_;
  Tick last_cost_update_ = 0;
  SwitchStats stats_;

  // Observability (null = not observed; see docs/OBSERVABILITY.md).
  obs::Counter* m_congestion_signals_ = nullptr;
  obs::Counter* m_overload_events_ = nullptr;
  obs::Counter* m_pacing_stalls_ = nullptr;
  obs::Counter* m_credit_grants_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
};

}  // namespace gimbal::core
