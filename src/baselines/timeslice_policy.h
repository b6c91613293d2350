// Timeslice (Argon/CFQ-style) IO scheduler — the §2.3 strawman.
//
// Each backlogged tenant receives exclusive access to the device for a
// fixed time quantum; within its slice a tenant's IOs dispatch up to a
// bounded depth, and the slice rotates round-robin. This buys strong
// isolation on millisecond-scale disks, but on microsecond NVMe devices
// it "violates responsiveness under high consolidation" (§2.3): a tenant
// that just missed its slice waits (#tenants - 1) x quantum before its
// first IO moves, and single-tenant slices cannot exploit the SSD's
// internal parallelism across tenants.
//
// Included as an extra baseline beyond the paper's three ports, to back
// the §2.3 argument with numbers (see ablation_timeslice).
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/fifo.h"
#include "core/io_policy.h"

namespace gimbal::baselines {

struct TimesliceParams {
  Tick quantum = Milliseconds(2);  // exclusive device time per tenant
  uint32_t depth = 32;             // outstanding IOs within a slice
};

class TimeslicePolicy : public core::PolicyBase {
 public:
  TimeslicePolicy(sim::Simulator& sim, ssd::BlockDevice& device,
                  TimesliceParams params = {})
      : PolicyBase(sim, device), params_(params) {}

  void OnRequest(const IoRequest& req) override;
  std::string name() const override { return "timeslice"; }

  TenantId current_tenant() const { return current_; }

 private:
  struct Flow {
    common::Fifo<IoRequest> queue;
    bool in_rotation = false;
  };

  void OnDeviceCompletion(const IoRequest& req,
                          const ssd::DeviceCompletion& dc,
                          uint64_t tag) override;
  void Pump();
  void StartSlice();
  void EndSlice();

  TimesliceParams params_;
  std::unordered_map<TenantId, Flow> flows_;
  std::deque<TenantId> rotation_;
  TenantId current_ = 0;
  bool slice_active_ = false;
  uint64_t slice_seq_ = 0;  // invalidates stale slice-end timers
  uint32_t outstanding_ = 0;
};

}  // namespace gimbal::baselines
