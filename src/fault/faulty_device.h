// BlockDevice decorator that realizes the FaultInjector's device-level
// faults without touching the SSD model itself.
//
// Per command, the injector decides one of:
//   * pass through untouched (the common case),
//   * pass through with extra completion latency (stall windows),
//   * fail without reaching the device (media error, failed SSD).
// While the SSD is in the failed state, completions still emerging from
// the wrapped model (commands accepted before the failure) are rewritten
// to status=device_failed — the inflight population dies with the device.
#pragma once

#include <memory>

#include "fault/fault.h"
#include "ssd/block_device.h"

namespace gimbal::fault {

class FaultyDevice : public ssd::BlockDevice {
 public:
  FaultyDevice(sim::Simulator& sim, std::unique_ptr<ssd::BlockDevice> inner,
               FaultInjector& injector, int ssd_index)
      : sim_(sim), inner_(std::move(inner)), injector_(injector),
        ssd_index_(ssd_index) {}

  void Submit(const ssd::DeviceIo& io, CompletionFn done) override {
    const FaultInjector::IoFault f =
        injector_.OnDeviceSubmit(ssd_index_, io.type, sim_.now());
    if (f.force_status != IoStatus::kOk) {
      // The command never reaches the device model: complete it locally
      // with the injected status after the fault's response latency.
      ssd::DeviceCompletion cpl;
      cpl.type = io.type;
      cpl.length = io.length;
      cpl.status = f.force_status;
      cpl.submit_time = sim_.now();
      sim_.After(f.fault_latency,
                 [this, cpl, done = std::move(done)]() mutable {
                   cpl.complete_time = sim_.now();
                   done(cpl);
                 });
      return;
    }
    inner_->Submit(io, [this, extra = f.extra_latency,
                        done = std::move(done)](
                           const ssd::DeviceCompletion& inner_cpl) {
      ssd::DeviceCompletion cpl = inner_cpl;
      if (injector_.health(ssd_index_) == SsdHealth::kFailed) {
        cpl.status = IoStatus::kDeviceFailed;
      }
      if (extra > 0 && cpl.ok()) {
        sim_.After(extra, [this, cpl, done]() mutable {
          cpl.complete_time = sim_.now();
          done(cpl);
        });
        return;
      }
      done(cpl);
    });
  }

  void Trim(uint64_t offset, uint32_t length) override {
    if (injector_.health(ssd_index_) == SsdHealth::kFailed) return;
    inner_->Trim(offset, length);
  }

  void Attach(const obs::Sinks& sinks) override { inner_->Attach(sinks); }

  uint64_t capacity_bytes() const override { return inner_->capacity_bytes(); }

  ssd::BlockDevice& inner() { return *inner_; }

 private:
  sim::Simulator& sim_;
  std::unique_ptr<ssd::BlockDevice> inner_;
  FaultInjector& injector_;
  int ssd_index_;
};

}  // namespace gimbal::fault
