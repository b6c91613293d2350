// Abstract block device the storage switch submits NVMe commands to.
//
// Implementations: the full NAND/FTL SSD model (ssd.h) and the NULL device
// used for the Table 1 overhead experiments (null_device.h).
#pragma once

#include <cstdint>
#include <functional>

#include "common/time.h"
#include "nvme/types.h"
#include "obs/obs.h"

namespace gimbal::ssd {

// One command handed to the device. `cookie` is an opaque caller tag the
// device ignores: a caller matches a completion to its command through the
// completion callback it passed with it.
struct DeviceIo {
  uint64_t cookie = 0;
  IoType type = IoType::kRead;
  uint64_t offset = 0;   // bytes, page aligned
  uint32_t length = 0;   // bytes, page multiple
};

struct DeviceCompletion {
  IoType type = IoType::kRead;
  uint32_t length = 0;
  IoStatus status = IoStatus::kOk;  // non-ok only from fault-injected devices
  Tick submit_time = 0;
  Tick complete_time = 0;
  Tick latency() const { return complete_time - submit_time; }
  bool ok() const { return status == IoStatus::kOk; }
};

class BlockDevice {
 public:
  using CompletionFn = std::function<void(const DeviceCompletion&)>;

  virtual ~BlockDevice() = default;

  // Submit a command; `done` fires (in simulated time) on completion.
  virtual void Submit(const DeviceIo& io, CompletionFn done) = 0;

  // Deallocate (TRIM) a page-aligned range: the device may drop the
  // mapping so GC stops relocating dead data. Instantaneous control-plane
  // operation; devices without support ignore it.
  virtual void Trim(uint64_t offset, uint32_t length) {
    (void)offset;
    (void)length;
  }

  // Attach metrics/trace (and the checker, which no device model reports
  // to yet); `sinks.label` is the ssd index labelling everything this
  // device emits. Devices without instrumentation ignore it.
  virtual void Attach(const obs::Sinks& /*sinks*/) {}

  // Device capacity in bytes.
  virtual uint64_t capacity_bytes() const = 0;
};

}  // namespace gimbal::ssd
