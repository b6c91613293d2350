#include "workload/openloop.h"

#include <cassert>

namespace gimbal::workload {

OpenLoopWorker::OpenLoopWorker(sim::Simulator& sim,
                               fabric::Initiator& initiator,
                               const OpenLoopSpec& spec, OpenLoopSink* sink)
    : sim_(sim),
      initiator_(initiator),
      sink_(sink),
      offered_iops_(spec.offered_iops),
      read_ratio_(spec.read_ratio),
      region_offset_(spec.region_offset),
      slots_(spec.region_bytes / spec.io_bytes),
      io_bytes_(spec.io_bytes),
      max_outstanding_(spec.max_outstanding),
      priority_(spec.priority),
      sequential_(spec.sequential),
      rng_(spec.seed),
      // The MMPP dwell machine draws from its own stream so burst phase is
      // a property of the seed, not of how many IOs happened to arrive.
      arrival_(spec.arrival, spec.seed ^ 0x6275727374ULL) {
  assert(sink_ != nullptr);
  assert(spec.region_bytes >= spec.io_bytes && "region not set");
  assert(spec.offered_iops > 0);
  seq_cursor_ = rng_.NextBounded(slots_);
}

void OpenLoopWorker::Start() {
  if (running_) return;
  running_ = true;
  ScheduleArrival();
}

void OpenLoopWorker::ScheduleArrival() {
  const Tick gap = arrival_.NextGap(offered_iops_, sim_.now(), rng_);
  arrival_timer_ = sim_.After(gap, [this]() {
    if (!running_) return;
    Arrive();
    ScheduleArrival();
  });
}

void OpenLoopWorker::Arrive() {
  if (outstanding_ >= max_outstanding_) {
    // The system is hopelessly behind the offered load; shedding arrivals
    // keeps memory bounded (the latency histogram already shows the
    // explosion by this point).
    if (counted_) ++sink_->dropped;
    return;
  }
  IoType type = rng_.NextBool(read_ratio_) ? IoType::kRead : IoType::kWrite;
  uint64_t slot = sequential_ ? (seq_cursor_++ % slots_)
                              : rng_.NextBounded(slots_);
  ++outstanding_;
  initiator_.Submit(
      type, region_offset_ + slot * io_bytes_, io_bytes_, priority_,
      [this](const IoCompletion& cpl, Tick e2e) {
        --outstanding_;
        if (counted_) {
          WorkerStats& stats = sink_->stats;
          if (!cpl.ok()) {
            ++stats.failed_ios;
          } else if (cpl.type == IoType::kRead) {
            stats.read_bytes += cpl.length;
            ++stats.read_ios;
            stats.read_latency.Record(e2e);
          } else {
            stats.write_bytes += cpl.length;
            ++stats.write_ios;
            stats.write_latency.Record(e2e);
          }
        }
        if (sink_->sample) sink_->sample(cpl.tenant, cpl, e2e);
      });
}

}  // namespace gimbal::workload
