// Flash translation layer: page-level logical-to-physical mapping, per-die
// block allocation, greedy garbage-collection victim selection, and dynamic
// wear levelling.
//
// The FTL is a *pure state machine* — it never touches the simulator clock.
// The timed Ssd device charges NAND time for the operations the FTL
// reports, and the preconditioning helpers drive the same state machine
// synchronously, not as simulated events. Host CPU on the default 512 MiB
// geometry (best of 40 in-process, in the host's fast speed regime, -O2,
// 4-vCPU Intel Xeon VM, GCC 12): the constructor ~0.08 ms,
// PreconditionSequential ~0.10 ms, and PreconditionRandom(3.0) (393K host
// writes, 1.2M GC relocations) ~6.1 ms, ~3 ms at 256 MiB.
//
// PreconditionSequential computes the clean layout instead of replaying
// it: each die's share of the round-robin program units fills its blocks
// in order, each block opened by OpenNewBlock and mapped as whole runs,
// with no per-page Invalidate, GC check or NextWriteDie. It leaves the FTL
// bit-identical to NextWriteDie, the GC check and AllocateOnDie per page:
// the same mapping, free-list order, wear-levelling picks, write pointers,
// valid counts and write-die cursor and budget. Ftl.CleanStateIsPinned
// pins it.
//
// The overwrite loop of PreconditionRandom writes one program unit per
// write-die step. A unit that ends before the die's open block fills, on a
// die above the GC watermark, meets no GC check and no block switch, so it
// is written with neither; any other unit goes page by page through
// AllocateOnDie. GcSynchronous relocates a victim's survivors as whole
// runs. Together they leave the FTL bit-identical to NextWriteDie, the GC
// check and AllocateOnDie per host page, with a GC-tagged AllocateOnDie of
// each survivor in block order: the same mapping, relocation order,
// free-list order, wear-levelling picks, erase counts, stats and
// write-die cursor. Ftl.PreconditionedStateIsPinned and the golden figures
// pin it.
//
// Snapshot takes an Image of the state and Restore rebuilds it in a fresh
// FTL in one pass over the forward map, ~0.2 ms at 256 MiB.
// Ssd::PreconditionFragmented keeps one image per (config, overwrite
// factor, seed) in a process-wide memo (ssd.cc), so PreconditionRandom runs
// once per key and process; each key holds 4 B per logical page plus ~9 B
// per block for the process lifetime. Ftl.ImageRoundTripIsPinned pins the
// restored state against the same hashes.
#pragma once

#include <cstdint>
#include <vector>

#include "ssd/config.h"

namespace gimbal::ssd {

// Physical page number: block * pages_per_block + offset_in_block.
using Ppn = uint32_t;
using Lpn = uint32_t;
constexpr uint32_t kInvalidPage = UINT32_MAX;

class Ftl {
 public:
  explicit Ftl(const SsdConfig& config);

  // --- Address translation -------------------------------------------------
  // Returns the physical page backing `lpn`, or kInvalidPage if never
  // written (reads of unwritten space are serviced as zeroes).
  Ppn Translate(Lpn lpn) const { return l2p_[lpn]; }

  int DieOfBlock(uint32_t block) const {
    return static_cast<int>(block % static_cast<uint32_t>(config_.dies()));
  }
  int DieOfPpn(Ppn ppn) const { return DieOfBlock(BlockOf(ppn)); }
  uint32_t BlockOf(Ppn ppn) const { return ppn >> block_shift_; }

  // --- Writes --------------------------------------------------------------
  // Map `lpn` to the next free page of `die`'s open block, invalidating any
  // previous mapping. Opens a new block (wear-levelled pick from the die's
  // free list) when the current one fills. Requires CanAllocate(die).
  Ppn AllocateOnDie(Lpn lpn, int die);

  // True if the die has an open page or at least one free block.
  bool CanAllocate(int die) const;

  // Free blocks currently available on `die` (open block excluded).
  int FreeBlocks(int die) const { return static_cast<int>(free_blocks_[die].size()); }

  // Drop the mapping of `lpn` (NVMe deallocate / TRIM): its physical copy
  // becomes stale immediately, so GC never has to relocate it.
  void Trim(Lpn lpn) {
    Invalidate(lpn);
    l2p_[lpn] = kInvalidPage;
  }

  // --- Garbage collection ---------------------------------------------------
  bool NeedsGc(int die) const {
    return FreeBlocks(die) < config_.gc_low_watermark;
  }
  bool GcSatisfied(int die) const {
    return FreeBlocks(die) >= config_.gc_high_watermark;
  }
  // Host-visible allocation must keep a reserve so GC can always proceed.
  bool HostWriteAllowed(int die) const {
    return FreeBlocks(die) > config_.host_write_reserve;
  }

  // Greedy victim: fully-written block on `die` with the fewest valid pages
  // (never the open block). Returns the block id or -1 if none.
  int SelectGcVictim(int die) const;

  // All still-valid logical pages in `block`, in block order.
  std::vector<Lpn> CollectValid(uint32_t block) const;

  // Erase `block`: it must be full and have zero valid pages; returns it to
  // the die's free list and bumps its erase count. Its p2l_ slots keep
  // their stale LPNs: nothing reads a slot at or past a block's write
  // pointer, and the block is rewritten slot by slot before it can be full.
  void EraseBlock(uint32_t block);

  // Synchronous GC used by preconditioning: relocate + erase until the die
  // reaches the high watermark. Counts relocated pages into stats.
  void GcSynchronous(int die);

  // --- Preconditioning ------------------------------------------------------
  // Write the whole logical space sequentially, striping program units
  // round-robin across dies (the clean, "bathtub-fresh" state).
  void PreconditionSequential();
  // Sequential fill, then `overwrite_factor` x logical-capacity of uniform
  // random 4 KiB overwrites — the fragmented steady state.
  void PreconditionRandom(double overwrite_factor, uint64_t seed = 42);
  // Both need a fresh FTL (nothing written, write-die cursor unmoved) whose
  // dies can each hold their share of the clean layout, and abort with a
  // message otherwise, in every build type.

  // --- Introspection --------------------------------------------------------
  uint16_t ValidPages(uint32_t block) const { return valid_count_[block]; }
  uint32_t EraseCount(uint32_t block) const { return erase_count_[block]; }
  const SsdConfig& config() const { return config_; }

  struct Stats {
    uint64_t host_pages_written = 0;   // pages allocated on behalf of host
    uint64_t gc_pages_relocated = 0;   // pages moved by GC
    uint64_t blocks_erased = 0;
    double WriteAmplification() const {
      if (host_pages_written == 0) return 1.0;
      return 1.0 + static_cast<double>(gc_pages_relocated) /
                       static_cast<double>(host_pages_written);
    }
  };
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

  // --- Snapshot / restore ---------------------------------------------------
  // A compact copy of an FTL's state: 4 B per logical page (the forward
  // map), 6 B per block, and the free lists and open blocks. It holds no
  // reverse map and no valid counts; Restore rebuilds both from the
  // forward map.
  struct Image {
    uint32_t pages_per_block = 0;
    std::vector<Ppn> l2p;
    std::vector<uint16_t> write_ptr;
    std::vector<uint32_t> erase_count;
    std::vector<std::vector<uint32_t>> free_blocks;
    std::vector<int32_t> open_block;
    Stats stats;
    int write_die_cursor = 0;
    uint32_t write_die_budget = 0;
  };
  Image Snapshot() const;
  // Makes this FTL the one `image` was taken of, in one pass over the
  // forward map. Needs a fresh FTL of the image's geometry and aborts with
  // a message otherwise, in every build type. Reverse-map slots at or past
  // a block's write pointer then read kInvalidPage, not the stale LPNs the
  // snapshotted FTL may keep there; nothing reads them (see EraseBlock).
  void Restore(const Image& image);

  // Tag the next allocations as GC relocations (accounting only).
  void BeginGcAllocation() { allocating_for_gc_ = true; }
  void EndGcAllocation() { allocating_for_gc_ = false; }

  // Round-robin die cursor used by writers that do not care which die a
  // page lands on; advances one program unit at a time so that sequential
  // data is striped in read-unit-sized chunks.
  int NextWriteDie();

 private:
  void OpenNewBlock(int die);
  // `die`'s open block, after opening a fresh one if it is missing or full.
  uint32_t WritableBlock(int die);
  void Invalidate(Lpn lpn);
  // Branch-free survivor scan of `block`'s written slots: writes its valid
  // LPNs, in block order, to `out` (which must hold pages_per_block
  // entries; the slots past the survivors are scratch) and returns how many.
  uint32_t CompactValid(uint32_t block, Lpn* out) const;
  // Moves the write-die cursor to the next die and gives it a fresh
  // program unit of budget.
  void StartWriteUnit();
  // Aborts, naming `caller`, unless nothing is written, no block is open
  // and the write-die cursor has not moved.
  void RequireFresh(const char* caller) const;

  SsdConfig config_;
  uint32_t block_shift_ = 0;              // log2(pages_per_block)
  std::vector<Ppn> l2p_;                  // lpn -> ppn
  std::vector<Lpn> p2l_;                  // ppn -> lpn (kInvalidPage if stale;
                                          // unread past a write pointer)
  std::vector<uint16_t> valid_count_;     // per block
  std::vector<uint16_t> write_ptr_;       // per block: next free page offset
  std::vector<uint32_t> erase_count_;     // per block (wear levelling)
  std::vector<std::vector<uint32_t>> free_blocks_;  // per die
  std::vector<int32_t> open_block_;       // per die, -1 if none
  std::vector<Lpn> gc_survivors_;         // GcSynchronous scratch, 1 block
  Stats stats_;
  bool allocating_for_gc_ = false;
  int write_die_cursor_ = 0;
  uint32_t write_die_budget_ = 0;  // pages left before cursor advances
};

}  // namespace gimbal::ssd
