// NULL block device: completes every command after a fixed (near-zero)
// latency without performing IO. Mirrors SPDK's null bdev, which the paper
// uses to measure the switch's maximum IOPS (Table 1b).
#pragma once

#include "sim/simulator.h"
#include "ssd/block_device.h"

namespace gimbal::ssd {

class NullDevice : public BlockDevice {
 public:
  NullDevice(sim::Simulator& sim, uint64_t capacity = 1ull << 30,
             Tick latency = Microseconds(2))
      : sim_(sim), capacity_(capacity), latency_(latency) {}

  void Submit(const DeviceIo& io, CompletionFn done) override {
    ++inflight_;
    DeviceCompletion cpl;
    cpl.type = io.type;
    cpl.length = io.length;
    cpl.submit_time = sim_.now();
    sim_.After(latency_, [this, cpl, done = std::move(done)]() mutable {
      cpl.complete_time = sim_.now();
      --inflight_;
      done(cpl);
    });
  }

  uint64_t capacity_bytes() const override { return capacity_; }
  // Commands accepted but not yet completed (Table 1 paces its queue
  // depth on it).
  uint32_t inflight() const { return inflight_; }

 private:
  sim::Simulator& sim_;
  uint64_t capacity_;
  Tick latency_;
  uint32_t inflight_ = 0;
};

}  // namespace gimbal::ssd
