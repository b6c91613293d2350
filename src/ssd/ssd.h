// Timed NVMe SSD model.
//
// Composes the pure-state FTL with a timing layer:
//   * a controller command engine (serial per-command processing cost —
//     this is what bounds small-IO IOPS, as on real devices),
//   * per-die NAND resources (sense / program / erase occupancy),
//   * per-channel transfer resources (this is what bounds large-IO
//     bandwidth),
//   * a DRAM write buffer that absorbs writes until its drain rate is
//     exceeded (the behaviour Gimbal's write-cost estimator exploits, §3.4),
//   * a per-die garbage collector whose relocation traffic interferes with
//     host IO (the clean-vs-fragmented asymmetry of §2.3 / Appendix A).
//
// All phenomena the paper measures on real SSDs — load/latency impulse
// response, read/write interference, IO-size bandwidth asymmetry, write
// amplification — emerge from these mechanisms rather than being scripted.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/resource.h"
#include "sim/simulator.h"
#include "ssd/block_device.h"
#include "ssd/config.h"
#include "ssd/ftl.h"

namespace gimbal::ssd {

struct SsdCounters {
  uint64_t read_commands = 0;
  uint64_t write_commands = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t buffer_hit_pages = 0;   // reads served from the DRAM write buffer
  uint64_t unmapped_pages = 0;     // reads of never-written space
  uint64_t gc_runs = 0;
  uint64_t trimmed_pages = 0;
};

class Ssd : public BlockDevice {
 public:
  Ssd(sim::Simulator& sim, SsdConfig config);
  ~Ssd() override;

  // BlockDevice interface -----------------------------------------------------
  void Submit(const DeviceIo& io, CompletionFn done) override;
  void Trim(uint64_t offset, uint32_t length) override;
  void Attach(const obs::Sinks& sinks) override;
  uint64_t capacity_bytes() const override { return config_.logical_bytes; }

  // Device conditioning (§5.1): run synchronously before the experiment,
  // on a fresh device.
  void PreconditionClean() { ftl_.PreconditionSequential(); }
  // The fragmented state depends only on the config, the overwrite factor
  // and the seed, so each such key runs Ftl::PreconditionRandom once per
  // process (~3 ms at 256 MiB, ~6 ms at 512 MiB) and keeps its
  // Ftl::Image in a process-wide memo (ssd.cc); later calls with the key
  // restore the image (~0.2 ms at 256 MiB). Each key holds 4 B per logical
  // page plus ~9 B per block (~261 KiB at 256 MiB) for the process
  // lifetime. The memo is mutex-guarded and its images are immutable, so
  // threads may precondition devices at the same time.
  void PreconditionFragmented(double overwrite_factor = 3.0,
                              uint64_t seed = 42);

  const SsdConfig& config() const { return config_; }
  const Ftl& ftl() const { return ftl_; }
  const SsdCounters& counters() const { return counters_; }
  uint64_t buffer_used() const { return buffer_used_; }

 private:
  struct ReadGroup {
    int die = 0;
    uint32_t pages = 0;
  };
  struct PendingIo {  // shared completion state for a dispatched command
    int remaining = 0;
    DeviceCompletion cpl;
    CompletionFn done;
    // Intrusive in-flight list: a testbed torn down mid-run drops the
    // resource events that would have finished these, so ~Ssd reaps them.
    PendingIo* prev = nullptr;
    PendingIo* next = nullptr;
  };
  struct WaitingWrite {
    DeviceIo io;
    CompletionFn done;
    Tick submit_time;
  };

  void DispatchRead(const DeviceIo& io, CompletionFn done, Tick submit_time);
  void DispatchWrite(const DeviceIo& io, CompletionFn done, Tick submit_time);
  void AdmitWrite(const DeviceIo& io, CompletionFn done, Tick submit_time);
  void AdmitWaiters();
  void KickAllPumps();
  void PumpDie(int die);
  void MaybeStartGc(int die);
  void GcStep(int die);
  void GcRelocateBatch(int die, uint32_t victim,
                       std::shared_ptr<std::vector<Lpn>> valid, size_t index);
  void EraseSlice(int die, uint32_t victim, int i);
  void FinishPart(PendingIo* op);
  void LinkPending(PendingIo* op) {
    op->next = pending_ops_;
    if (pending_ops_) pending_ops_->prev = op;
    pending_ops_ = op;
  }
  void UnlinkPending(PendingIo* op) {
    if (op->prev) {
      op->prev->next = op->next;
    } else {
      pending_ops_ = op->next;
    }
    if (op->next) op->next->prev = op->prev;
  }

  uint64_t buffer_free() const {
    return config_.write_buffer_bytes - buffer_used_;
  }
  int ChannelOfDie(int die) const { return die % config_.channels; }

  sim::Simulator& sim_;
  SsdConfig config_;
  Ftl ftl_;

  sim::Resource cmd_engine_;
  // Dies serve host reads at high priority ahead of queued programs, GC
  // copybacks and erase slices (controller read-priority / suspension).
  std::vector<std::unique_ptr<sim::Resource>> die_res_;
  std::vector<std::unique_ptr<sim::Resource>> channel_res_;

  // Write buffer state. Buffered pages sit in one global drain FIFO;
  // per-die pumps *pull* a program unit at a time whenever their die can
  // accept a write (blocked or GC-busy dies simply don't pull, so one
  // packed die never wedges the pipeline). Pull order rotates across dies
  // so sequential data lands striped in read-unit-sized chunks even at
  // low rate.
  uint64_t buffer_used_ = 0;
  std::unordered_map<Lpn, uint32_t> buffer_map_;  // lpn -> buffered copies
  std::deque<Lpn> drain_;
  std::deque<WaitingWrite> admit_wait_;
  std::vector<uint8_t> pump_active_;  // per die
  int kick_cursor_ = 0;               // rotating first-die for pump kicks

  // GC state.
  std::vector<uint8_t> gc_active_;  // per die

  SsdCounters counters_;
  PendingIo* pending_ops_ = nullptr;  // head of the in-flight intrusive list

  // Observability (null = not observed; see docs/OBSERVABILITY.md).
  obs::Observability* obs_ = nullptr;
  int ssd_index_ = -1;
  obs::Counter* m_read_cmds_ = nullptr;
  obs::Counter* m_write_cmds_ = nullptr;
  obs::Counter* m_read_bytes_ = nullptr;
  obs::Counter* m_write_bytes_ = nullptr;
  obs::Counter* m_gc_runs_ = nullptr;
  obs::Counter* m_gc_pages_ = nullptr;
  obs::Counter* m_gc_erased_ = nullptr;
  obs::Gauge* m_buffer_used_ = nullptr;
};

}  // namespace gimbal::ssd
