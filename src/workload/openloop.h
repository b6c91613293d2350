// Open-loop workload driver: IOs arrive on an arrival process at an
// offered rate independent of completions (unlike FioWorker's closed
// loop). This is the right tool for latency-vs-offered-load curves — a
// closed loop self-throttles at the knee and hides the latency explosion.
//
// The arrival process defaults to Poisson (draw-for-draw identical to the
// original generator) and can be modulated per ArrivalSpec: MMPP burst
// storms and a diurnal sinusoid, sampled exactly by thinning
// (workload/arrivals.h). Large populations of workers with heavy-tailed
// per-session rates are orchestrated by the OpenLoopFleet
// (workload/fleet.h), which owns one OpenLoopWorker per live session.
//
// A worker records into a caller-owned OpenLoopSink through one pointer
// rather than owning its stats, so many workers can share one sink: the
// fleet gives all its seats a single fleet-wide sink (and sample hook),
// which keeps a seat's worker at the generator state alone.
#pragma once

#include <cstdint>
#include <functional>

#include "common/histogram.h"
#include "common/rng.h"
#include "fabric/initiator.h"
#include "workload/arrivals.h"
#include "workload/fio.h"

namespace gimbal::workload {

struct OpenLoopSpec {
  double offered_iops = 10'000;   // mean arrival rate
  double read_ratio = 1.0;
  uint32_t io_bytes = 4096;
  bool sequential = false;
  IoPriority priority = IoPriority::kNormal;
  uint64_t region_offset = 0;
  uint64_t region_bytes = 0;      // 0 = whole device (set by caller)
  uint32_t max_outstanding = 4096;  // sanity cap; beyond it arrivals drop
  uint64_t seed = 1;
  // Rate modulation over the base process; the default is pure Poisson.
  ArrivalSpec arrival;
};

// Where open-loop workers record. Owned by the caller and shared by
// every worker given a pointer to it.
struct OpenLoopSink {
  // Per-completion hook (fleet SLO tracking): tenant, completion,
  // client-observed e2e latency. Fires for every completion, ok or not,
  // after the stats update — also for a worker whose stats were detached.
  using SampleFn =
      std::function<void(TenantId, const IoCompletion&, Tick e2e)>;

  WorkerStats stats;
  uint64_t dropped = 0;  // arrivals shed at max_outstanding
  SampleFn sample;       // optional
};

class OpenLoopWorker {
 public:
  // `sink` must outlive every completion of this worker's IOs.
  OpenLoopWorker(sim::Simulator& sim, fabric::Initiator& initiator,
                 const OpenLoopSpec& spec, OpenLoopSink* sink);

  void Start();
  // Stops the arrival process and cancels the pending arrival timer, so a
  // stopped worker leaves nothing in the event queue that references it —
  // the fleet reclaims workers mid-run relying on exactly this.
  void Stop() {
    running_ = false;
    arrival_timer_.Cancel();
  }
  bool running() const { return running_; }

  // From here on this worker's completions and shed arrivals no longer
  // count in the sink's stats; the sample hook still fires for them.
  void DetachStats() { counted_ = false; }

  uint32_t outstanding() const { return outstanding_; }

 private:
  void ScheduleArrival();
  void Arrive();

  sim::Simulator& sim_;
  fabric::Initiator& initiator_;
  OpenLoopSink* sink_;
  // What the arrivals need of the OpenLoopSpec; its ArrivalSpec lives in
  // arrival_ alone.
  double offered_iops_;
  double read_ratio_;
  uint64_t region_offset_;
  uint64_t slots_;  // io_bytes-sized slots in the region
  uint32_t io_bytes_;
  uint32_t max_outstanding_;
  IoPriority priority_;
  bool sequential_;
  bool running_ = false;
  bool counted_ = true;
  uint32_t outstanding_ = 0;
  uint64_t seq_cursor_ = 0;
  Rng rng_;
  ArrivalProcess arrival_;
  sim::TimerHandle arrival_timer_;
};

}  // namespace gimbal::workload
