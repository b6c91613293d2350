#include "ssd/ssd.h"

#include <cassert>
#include <mutex>

#include "obs/schema.h"

namespace gimbal::ssd {
namespace {

// One fragmented preconditioning result per key, built on first use and
// never evicted. Entries are heap-allocated so a found image stays put
// while other threads append.
struct FragmentedImage {
  SsdConfig config;
  double overwrite_factor = 0;
  uint64_t seed = 0;
  Ftl::Image image;
};

struct FragmentedMemo {
  std::mutex mu;
  std::vector<std::unique_ptr<const FragmentedImage>> images;  // under mu

  const FragmentedImage* Find(const SsdConfig& config,
                              double overwrite_factor, uint64_t seed) const {
    for (const auto& entry : images) {
      if (entry->config == config &&
          entry->overwrite_factor == overwrite_factor && entry->seed == seed) {
        return entry.get();
      }
    }
    return nullptr;
  }
};

FragmentedMemo& Memo() {
  static FragmentedMemo memo;
  return memo;
}

}  // namespace

void Ssd::PreconditionFragmented(double overwrite_factor, uint64_t seed) {
  FragmentedMemo& memo = Memo();
  const FragmentedImage* found = nullptr;
  {
    std::lock_guard lock(memo.mu);
    found = memo.Find(config_, overwrite_factor, seed);
  }
  if (found) {
    ftl_.Restore(found->image);
    return;
  }
  // Built outside the lock, so devices of different keys fragment in
  // parallel. Two threads that race on one key build the same state, and
  // the first to finish keeps its image.
  ftl_.PreconditionRandom(overwrite_factor, seed);
  auto entry = std::make_unique<const FragmentedImage>(FragmentedImage{
      config_, overwrite_factor, seed, ftl_.Snapshot()});
  std::lock_guard lock(memo.mu);
  if (!memo.Find(config_, overwrite_factor, seed)) {
    memo.images.push_back(std::move(entry));
  }
}

void Ssd::Attach(const obs::Sinks& sinks) {
  obs_ = sinks.obs;
  ssd_index_ = sinks.label;
  if (!obs_) return;
  namespace schema = obs::schema;
  const obs::Labels l = obs::Labels::Ssd(ssd_index_);
  obs::MetricsRegistry& reg = obs_->metrics;
  m_read_cmds_ = &reg.GetCounter(schema::kSsdReadCommands, l);
  m_write_cmds_ = &reg.GetCounter(schema::kSsdWriteCommands, l);
  m_read_bytes_ = &reg.GetCounter(schema::kSsdReadBytes, l);
  m_write_bytes_ = &reg.GetCounter(schema::kSsdWriteBytes, l);
  m_gc_runs_ = &reg.GetCounter(schema::kSsdGcInvocations, l);
  m_gc_pages_ = &reg.GetCounter(schema::kSsdGcPagesRelocated, l);
  m_gc_erased_ = &reg.GetCounter(schema::kSsdBlocksErased, l);
  m_buffer_used_ = &reg.GetGauge(schema::kSsdBufferUsed, l);
}

Ssd::Ssd(sim::Simulator& sim, SsdConfig config)
    : sim_(sim), config_(config), ftl_(config), cmd_engine_(sim) {
  die_res_.reserve(config_.dies());
  for (int d = 0; d < config_.dies(); ++d) {
    die_res_.push_back(std::make_unique<sim::Resource>(sim_));
  }
  channel_res_.reserve(config_.channels);
  for (int c = 0; c < config_.channels; ++c) {
    channel_res_.push_back(std::make_unique<sim::Resource>(sim_));
  }
  pump_active_.assign(config_.dies(), 0);
  gc_active_.assign(config_.dies(), 0);
}

Ssd::~Ssd() {
  // A testbed destroyed with IOs still dispatched (teardown mid-run, a
  // failed device drained administratively) also destroys the simulator's
  // queued die/channel events — the completions that would have freed
  // this state never run, so reap it here.
  while (pending_ops_) {
    PendingIo* op = pending_ops_;
    pending_ops_ = op->next;
    delete op;
  }
}

void Ssd::Submit(const DeviceIo& io, CompletionFn done) {
  assert(io.length > 0);
  assert(io.offset % config_.page_bytes == 0);
  assert(io.length % config_.page_bytes == 0);
  assert(io.offset + io.length <= config_.logical_bytes);
  const Tick submit_time = sim_.now();
  // Controller front-end: each NVMe command costs cmd_cost of serialized
  // controller compute. This is the small-IO IOPS bound.
  cmd_engine_.Acquire(config_.cmd_cost,
                      [this, io, done = std::move(done), submit_time]() mutable {
                        if (io.type == IoType::kRead) {
                          DispatchRead(io, std::move(done), submit_time);
                        } else {
                          DispatchWrite(io, std::move(done), submit_time);
                        }
                      });
}

void Ssd::Trim(uint64_t offset, uint32_t length) {
  assert(offset % config_.page_bytes == 0);
  assert(length % config_.page_bytes == 0);
  const uint32_t first = static_cast<uint32_t>(offset / config_.page_bytes);
  const uint32_t npages = length / config_.page_bytes;
  for (uint32_t i = 0; i < npages; ++i) {
    Lpn lpn = first + i;
    // Copies still in the write buffer will be programmed and then count
    // as stale; the common case (cold data) just drops the mapping.
    if (ftl_.Translate(lpn) != kInvalidPage) {
      ftl_.Trim(lpn);
      ++counters_.trimmed_pages;
    }
  }
}

void Ssd::FinishPart(PendingIo* op) {
  if (--op->remaining == 0) {
    op->cpl.complete_time = sim_.now();
    op->done(op->cpl);
    UnlinkPending(op);
    delete op;
  }
}

void Ssd::DispatchRead(const DeviceIo& io, CompletionFn done,
                       Tick submit_time) {
  ++counters_.read_commands;
  counters_.read_bytes += io.length;
  if (m_read_cmds_) {
    m_read_cmds_->Add(1);
    m_read_bytes_->Add(io.length);
  }

  const uint32_t first = static_cast<uint32_t>(io.offset / config_.page_bytes);
  const uint32_t npages = io.length / config_.page_bytes;

  // Classify pages and coalesce NAND reads: physically-consecutive pages on
  // one die merge into a single multi-plane sense of up to read_unit_pages.
  std::vector<ReadGroup> groups;
  uint32_t buffered = 0;
  Ppn prev_ppn = kInvalidPage;
  for (uint32_t i = 0; i < npages; ++i) {
    Lpn lpn = first + i;
    if (buffer_map_.count(lpn)) {
      ++buffered;
      ++counters_.buffer_hit_pages;
      prev_ppn = kInvalidPage;
      continue;
    }
    Ppn ppn = ftl_.Translate(lpn);
    if (ppn == kInvalidPage) {
      ++counters_.unmapped_pages;
      prev_ppn = kInvalidPage;
      continue;
    }
    int die = ftl_.DieOfPpn(ppn);
    if (!groups.empty() && prev_ppn != kInvalidPage && ppn == prev_ppn + 1 &&
        groups.back().die == die &&
        groups.back().pages < config_.read_unit_pages) {
      ++groups.back().pages;
    } else {
      groups.push_back(ReadGroup{die, 1});
    }
    prev_ppn = ppn;
  }

  auto* op = new PendingIo;
  LinkPending(op);
  op->cpl.type = io.type;
  op->cpl.length = io.length;
  op->cpl.submit_time = submit_time;
  op->done = std::move(done);
  op->remaining = static_cast<int>(groups.size()) + (buffered > 0 ? 1 : 0);

  if (op->remaining == 0) {
    // Entirely unmapped: the controller returns zeroes at DRAM speed.
    op->remaining = 1;
    sim_.After(config_.dram_latency, [this, op]() { FinishPart(op); });
    return;
  }
  if (buffered > 0) {
    // Pages still in the write buffer are served from DRAM.
    Tick t = config_.dram_latency +
             TransferTime(uint64_t{buffered} * config_.page_bytes,
                          config_.dram_bw);
    sim_.After(t, [this, op]() { FinishPart(op); });
  }
  for (const ReadGroup& g : groups) {
    const uint64_t bytes = uint64_t{g.pages} * config_.page_bytes;
    const int ch = ChannelOfDie(g.die);
    die_res_[g.die]->AcquireHigh(config_.read_latency, [this, op, ch,
                                                        bytes]() {
      channel_res_[ch]->Acquire(TransferTime(bytes, config_.channel_bw),
                                [this, op]() { FinishPart(op); });
    });
  }
}

void Ssd::DispatchWrite(const DeviceIo& io, CompletionFn done,
                        Tick submit_time) {
  ++counters_.write_commands;
  counters_.write_bytes += io.length;
  if (m_write_cmds_) {
    m_write_cmds_->Add(1);
    m_write_bytes_->Add(io.length);
  }
  if (admit_wait_.empty() && buffer_free() >= io.length) {
    AdmitWrite(io, std::move(done), submit_time);
  } else {
    admit_wait_.push_back(WaitingWrite{io, std::move(done), submit_time});
  }
}

void Ssd::AdmitWrite(const DeviceIo& io, CompletionFn done, Tick submit_time) {
  buffer_used_ += io.length;
  if (m_buffer_used_) {
    m_buffer_used_->Set(static_cast<double>(buffer_used_));
  }
  const uint32_t first = static_cast<uint32_t>(io.offset / config_.page_bytes);
  const uint32_t npages = io.length / config_.page_bytes;
  for (uint32_t i = 0; i < npages; ++i) {
    ++buffer_map_[first + i];
    drain_.push_back(first + i);
  }
  // The host sees the write complete once the data is in the DRAM buffer.
  auto* op = new PendingIo;
  LinkPending(op);
  op->cpl.type = io.type;
  op->cpl.length = io.length;
  op->cpl.submit_time = submit_time;
  op->done = std::move(done);
  op->remaining = 1;
  // Progressive backpressure: the controller acks buffered writes roughly
  // in program order, so the ack latency grows with the bytes queued ahead
  // (real drives pace program credits rather than acking at DRAM speed
  // until a hard cliff). This smooth, linear latency ramp is what gives
  // delay-based congestion control a usable gradient.
  Tick backpressure = static_cast<Tick>(
      static_cast<double>(buffer_used_) * kNsPerSec /
      config_.nominal_drain_bps());
  Tick t = config_.dram_latency + TransferTime(io.length, config_.dram_bw) +
           backpressure;
  sim_.After(t, [this, op]() { FinishPart(op); });
  KickAllPumps();
}

void Ssd::AdmitWaiters() {
  while (!admit_wait_.empty() && buffer_free() >= admit_wait_.front().io.length) {
    WaitingWrite w = std::move(admit_wait_.front());
    admit_wait_.pop_front();
    AdmitWrite(w.io, std::move(w.done), w.submit_time);
  }
}

void Ssd::KickAllPumps() {
  if (drain_.empty()) return;
  // Rotate the starting die so low-rate writes stripe across dies instead
  // of always landing on die 0.
  int start = kick_cursor_;
  kick_cursor_ = (kick_cursor_ + 1) % config_.dies();
  for (int i = 0; i < config_.dies() && !drain_.empty(); ++i) {
    PumpDie((start + i) % config_.dies());
  }
}

void Ssd::PumpDie(int die) {
  if (pump_active_[die]) return;
  if (drain_.empty()) return;
  if (!ftl_.HostWriteAllowed(die) || !ftl_.CanAllocate(die)) {
    // This die cannot take host writes right now; GC (if it can make
    // progress) will re-kick the pumps after its next erase. Other dies
    // keep pulling from the shared FIFO meanwhile.
    MaybeStartGc(die);
    return;
  }
  pump_active_[die] = 1;
  // Pull one program unit's worth of buffered pages for this die.
  auto batch = std::make_shared<std::vector<Lpn>>();
  while (!drain_.empty() && batch->size() < config_.program_unit_pages) {
    batch->push_back(drain_.front());
    drain_.pop_front();
  }
  const uint64_t bytes = batch->size() * uint64_t{config_.page_bytes};
  const int ch = ChannelOfDie(die);
  channel_res_[ch]->Acquire(
      TransferTime(bytes, config_.channel_bw), [this, die, batch, bytes]() {
        die_res_[die]->Acquire(config_.program_latency, [this, die, batch,
                                                            bytes]() {
          // Mapping updates happen at program completion.
          for (Lpn lpn : *batch) {
            ftl_.AllocateOnDie(lpn, die);
            auto it = buffer_map_.find(lpn);
            if (it != buffer_map_.end() && --it->second == 0) {
              buffer_map_.erase(it);
            }
          }
          buffer_used_ -= bytes;
          if (m_buffer_used_) {
            m_buffer_used_->Set(static_cast<double>(buffer_used_));
          }
          pump_active_[die] = 0;
          AdmitWaiters();
          MaybeStartGc(die);
          PumpDie(die);
        });
      });
}

void Ssd::MaybeStartGc(int die) {
  if (gc_active_[die]) return;
  if (!ftl_.NeedsGc(die)) return;
  gc_active_[die] = 1;
  ++counters_.gc_runs;
  if (obs_) {
    m_gc_runs_->Add(1);
    obs_->tracer.Instant(sim_.now(), obs::schema::kEvGcStart,
                         obs::Labels::Ssd(ssd_index_),
                         {{"die", static_cast<double>(die)},
                          {"free_blocks",
                           static_cast<double>(ftl_.FreeBlocks(die))}});
  }
  GcStep(die);
}

void Ssd::GcStep(int die) {
  if (ftl_.GcSatisfied(die)) {
    gc_active_[die] = 0;
    if (obs_) {
      obs_->tracer.Instant(sim_.now(), obs::schema::kEvGcEnd,
                           obs::Labels::Ssd(ssd_index_),
                           {{"die", static_cast<double>(die)}});
    }
    PumpDie(die);
    return;
  }
  int victim = ftl_.SelectGcVictim(die);
  if (victim < 0 ||
      ftl_.ValidPages(static_cast<uint32_t>(victim)) >=
          config_.pages_per_block) {
    // Nothing reclaimable, or the die is packed solid with valid data
    // (relocation would gain nothing): stand down until state changes.
    gc_active_[die] = 0;
    if (obs_) {
      obs_->tracer.Instant(sim_.now(), obs::schema::kEvGcEnd,
                           obs::Labels::Ssd(ssd_index_),
                           {{"die", static_cast<double>(die)}});
    }
    return;
  }
  auto valid = std::make_shared<std::vector<Lpn>>(
      ftl_.CollectValid(static_cast<uint32_t>(victim)));
  GcRelocateBatch(die, static_cast<uint32_t>(victim), std::move(valid), 0);
}

void Ssd::GcRelocateBatch(int die, uint32_t victim,
                          std::shared_ptr<std::vector<Lpn>> valid,
                          size_t index) {
  if (index >= valid->size()) {
    // All survivors relocated (or invalidated by host writes): erase.
    EraseSlice(die, victim, 0);
    return;
  }
  size_t end = std::min(index + config_.program_unit_pages, valid->size());
  // One multi-plane copyback: sense then program on the same die. Host IOs
  // queued on the die FIFO interleave between GC steps — that queueing is
  // the read/write interference the paper measures.
  die_res_[die]->Acquire(config_.read_latency, [this, die, victim, valid,
                                                   index, end]() {
    die_res_[die]->Acquire(config_.program_latency, [this, die, victim,
                                                        valid, index, end]() {
      ftl_.BeginGcAllocation();
      uint64_t relocated = 0;
      for (size_t i = index; i < end; ++i) {
        Lpn lpn = (*valid)[i];
        // Skip pages the host overwrote after victim selection — their
        // valid copy now lives elsewhere.
        Ppn cur = ftl_.Translate(lpn);
        if (cur == kInvalidPage || ftl_.BlockOf(cur) != victim) continue;
        ftl_.AllocateOnDie(lpn, die);
        ++relocated;
      }
      ftl_.EndGcAllocation();
      if (m_gc_pages_ && relocated) m_gc_pages_->Add(relocated);
      GcRelocateBatch(die, victim, valid, end);
    });
  });
}

// The erase runs in suspendable slices so host reads queued at high
// priority interleave; slice `i` is followed by `i + 1`, the last erases.
void Ssd::EraseSlice(int die, uint32_t victim, int i) {
  const int slices = config_.erase_slices > 0 ? config_.erase_slices : 1;
  die_res_[die]->Acquire(
      config_.erase_latency / slices, [this, die, victim, i, slices]() {
        if (i + 1 < slices) {
          EraseSlice(die, victim, i + 1);
          return;
        }
        ftl_.EraseBlock(victim);
        if (m_gc_erased_) m_gc_erased_->Add(1);
        AdmitWaiters();
        // A freed block may unblock pumps beyond this die (pages can have
        // been redistributed while it was packed).
        KickAllPumps();
        GcStep(die);
      });
}

}  // namespace gimbal::ssd
