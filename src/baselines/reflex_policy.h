// ReFlex-style policy (Klimovic et al., ASPLOS'17), ported per §5.1.
//
// ReFlex schedules with an *offline-calibrated* request cost model: every
// IO costs tokens proportional to its size in pages, writes cost a fixed
// multiple of reads, and the device is assumed to supply tokens at a fixed
// calibrated rate. Tenants share that token rate through deficit
// round-robin. There is no flow control and no online recalibration — the
// two properties the paper shows hurt it (Fig 6: over-throttled writes on
// clean SSDs, capped large-IO bandwidth; Fig 8: high tails).
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>

#include "common/fifo.h"
#include "core/io_policy.h"

namespace gimbal::baselines {

struct ReflexParams {
  // Token supply: calibrated 4 KiB random-read IOPS of the device
  // (tokens/sec; one token = one 4 KiB read-equivalent).
  double token_rate = 400e3;
  // Offline write cost: datasheet read/write IOPS ratio (same worst-case
  // number Gimbal uses as its *ceiling*, but ReFlex applies it always).
  double write_cost = 9.0;
  // DRR quantum, in tokens.
  double quantum = 32.0;
  // Token bucket cap (burst allowance), in tokens.
  double bucket_cap = 256.0;
};

class ReflexPolicy : public core::PolicyBase {
 public:
  ReflexPolicy(sim::Simulator& sim, ssd::BlockDevice& device,
               ReflexParams params = {})
      : PolicyBase(sim, device), params_(params) {}

  void OnRequest(const IoRequest& req) override;
  // Fails the tenant's queued IOs (kAborted) and forgets its flow.
  void OnTenantDisconnect(TenantId tenant) override;
  std::string name() const override { return "reflex"; }

  double TokenCost(const IoRequest& req) const {
    double pages = static_cast<double>((req.length + 4095) / 4096);
    return req.type == IoType::kWrite ? pages * params_.write_cost : pages;
  }

 private:
  struct Flow {
    common::Fifo<IoRequest> queue;
    double deficit = 0;
    bool in_round = false;
  };

  void OnDeviceCompletion(const IoRequest& req,
                          const ssd::DeviceCompletion& dc,
                          uint64_t tag) override;
  void Pump();
  void RefillTokens();
  void SchedulePoke(Tick delay);

  ReflexParams params_;
  std::unordered_map<TenantId, Flow> flows_;
  std::deque<TenantId> round_;  // DRR order over flows with queued IOs
  double tokens_ = 0;
  Tick last_refill_ = 0;
  bool refill_started_ = false;
  bool poke_scheduled_ = false;
};

}  // namespace gimbal::baselines
