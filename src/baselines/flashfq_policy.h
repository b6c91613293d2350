// FlashFQ-style policy (Shen & Park, USENIX ATC'13), ported per §5.1.
//
// Start-time fair queueing with throttled dispatch — SFQ(D):
//   * every request gets a start tag max(virtual_time, flow.last_finish)
//     and a finish tag start + cost/weight, with a *linear* size-based
//     cost model (writes cost a fixed multiple of reads);
//   * at most D requests are outstanding at the device; dispatch picks the
//     smallest start tag;
//   * virtual time advances to the start tag of the last dispatched IO;
//   * deceptive idleness is mitigated by anticipation: if the flow that
//     would be served next went briefly idle after a completion, dispatch
//     of *other* flows is held for a short anticipation window.
//
// Work-conserving and flow-control-free: under high consolidation its
// queues live at the device, which is why Fig 8 shows high tails, and its
// linear model cannot see SSD-condition-dependent costs (Fig 7: read and
// write bandwidths come out equal).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/fifo.h"
#include "core/io_policy.h"

namespace gimbal::baselines {

struct FlashFqParams {
  uint32_t depth = 32;              // D: outstanding IOs at the device
  double write_cost = 2.5;          // linear model: write multiplier
  double weight = 1.0;              // all tenants equal
  Tick anticipation = Microseconds(150);  // idle-wait window
};

class FlashFqPolicy : public core::PolicyBase {
 public:
  FlashFqPolicy(sim::Simulator& sim, ssd::BlockDevice& device,
                FlashFqParams params = {})
      : PolicyBase(sim, device), params_(params) {}

  void OnRequest(const IoRequest& req) override;
  std::string name() const override { return "flashfq"; }

  double virtual_time() const { return vtime_; }

 private:
  struct Tagged {
    IoRequest req;
    double start_tag = 0;
  };
  struct Flow {
    common::Fifo<Tagged> queue;
    double last_finish = 0;
    Tick last_completion = -1;   // for anticipation
    bool anticipating = false;
  };

  double Cost(const IoRequest& req) const {
    double pages = static_cast<double>((req.length + 4095) / 4096);
    return (req.type == IoType::kWrite ? params_.write_cost : 1.0) * pages /
           params_.weight;
  }

  void OnDeviceCompletion(const IoRequest& req,
                          const ssd::DeviceCompletion& dc,
                          uint64_t tag) override;
  void Pump();

  FlashFqParams params_;
  std::unordered_map<TenantId, Flow> flows_;
  uint32_t outstanding_ = 0;
  double vtime_ = 0;
  bool poke_scheduled_ = false;
};

}  // namespace gimbal::baselines
