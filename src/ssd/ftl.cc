#include "ssd/ftl.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/rng.h"

namespace gimbal::ssd {

Ftl::Ftl(const SsdConfig& config) : config_(config) {
  // BlockOf is a shift and the write loops step whole program units.
  // Checked in every build type.
  if (!std::has_single_bit(config_.pages_per_block) ||
      config_.program_unit_pages == 0) {
    std::fprintf(stderr,
                 "Ftl: pages_per_block=%u must be a power of two and "
                 "program_unit_pages=%u at least 1\n",
                 config_.pages_per_block, config_.program_unit_pages);
    std::abort();
  }
  block_shift_ =
      static_cast<uint32_t>(std::countr_zero(config_.pages_per_block));
  const uint32_t blocks = config_.physical_blocks();
  const uint32_t pages = blocks * config_.pages_per_block;
  l2p_.assign(config_.logical_pages(), kInvalidPage);
  p2l_.assign(pages, kInvalidPage);
  valid_count_.assign(blocks, 0);
  write_ptr_.assign(blocks, 0);
  erase_count_.assign(blocks, 0);
  free_blocks_.resize(config_.dies());
  open_block_.assign(config_.dies(), -1);
  gc_survivors_.resize(config_.pages_per_block);
  // Block b lives on die b % dies; hand every block to its die's free list.
  for (uint32_t b = 0; b < blocks; ++b) {
    free_blocks_[DieOfBlock(b)].push_back(b);
  }
}

bool Ftl::CanAllocate(int die) const {
  if (open_block_[die] >= 0 &&
      write_ptr_[open_block_[die]] < config_.pages_per_block) {
    return true;
  }
  return !free_blocks_[die].empty();
}

void Ftl::OpenNewBlock(int die) {
  auto& free = free_blocks_[die];
  assert(!free.empty() && "die out of free blocks");
  // Dynamic wear levelling: pick the free block with the lowest erase count.
  size_t best = 0;
  for (size_t i = 1; i < free.size(); ++i) {
    if (erase_count_[free[i]] < erase_count_[free[best]]) best = i;
  }
  uint32_t block = free[best];
  free[best] = free.back();
  free.pop_back();
  open_block_[die] = static_cast<int32_t>(block);
  assert(write_ptr_[block] == 0);
}

void Ftl::Invalidate(Lpn lpn) {
  Ppn old = l2p_[lpn];
  if (old == kInvalidPage) return;
  uint32_t block = BlockOf(old);
  assert(valid_count_[block] > 0);
  --valid_count_[block];
  p2l_[old] = kInvalidPage;
}

uint32_t Ftl::WritableBlock(int die) {
  if (open_block_[die] < 0 ||
      write_ptr_[open_block_[die]] >= config_.pages_per_block) {
    OpenNewBlock(die);
  }
  return static_cast<uint32_t>(open_block_[die]);
}

Ppn Ftl::AllocateOnDie(Lpn lpn, int die) {
  assert(lpn < l2p_.size());
  uint32_t block = WritableBlock(die);
  Invalidate(lpn);
  uint16_t off = write_ptr_[block]++;
  Ppn ppn = block * config_.pages_per_block + off;
  l2p_[lpn] = ppn;
  p2l_[ppn] = lpn;
  ++valid_count_[block];
  if (allocating_for_gc_) {
    ++stats_.gc_pages_relocated;
  } else {
    ++stats_.host_pages_written;
  }
  return ppn;
}

int Ftl::SelectGcVictim(int die) const {
  // Branch-free minimum of (valid << 32 | block): fewest valid pages, ties
  // to the lowest block id. The open block and blocks that are not full
  // are or-ed with all ones, i.e. map to UINT64_MAX.
  const uint32_t dies = static_cast<uint32_t>(config_.dies());
  const uint32_t open = static_cast<uint32_t>(open_block_[die]);
  uint64_t best = UINT64_MAX;
  for (uint32_t b = static_cast<uint32_t>(die); b < valid_count_.size();
       b += dies) {
    const uint64_t ineligible =
        (write_ptr_[b] != config_.pages_per_block) | (b == open);
    const uint64_t key = uint64_t{valid_count_[b]} << 32 | b;
    best = std::min(best, key | -ineligible);
  }
  return best == UINT64_MAX ? -1
                            : static_cast<int>(static_cast<uint32_t>(best));
}

uint32_t Ftl::CompactValid(uint32_t block, Lpn* out) const {
  // ~3/4 of a fragmented victim's pages are live in no predictable pattern,
  // so a per-page branch mispredicts; store every slot and advance the
  // cursor by the validity bit instead. Each half of the written slots has
  // its own cursor, so the two store chains run side by side; the second
  // half's survivors then move up behind the first's.
  const Lpn* pages = &p2l_[block * config_.pages_per_block];
  const uint32_t written = write_ptr_[block];
  const uint32_t half = written / 2;
  Lpn* upper = out + half;
  uint32_t lo = 0;
  uint32_t hi = 0;
  for (uint32_t i = 0; i < half; ++i) {
    const Lpn a = pages[i];
    const Lpn b = pages[half + i];
    out[lo] = a;
    upper[hi] = b;
    lo += a != kInvalidPage;
    hi += b != kInvalidPage;
  }
  if (written % 2 != 0) {
    const Lpn b = pages[written - 1];
    upper[hi] = b;
    hi += b != kInvalidPage;
  }
  std::memmove(out + lo, upper, hi * sizeof(Lpn));
  assert(lo + hi == valid_count_[block]);
  return lo + hi;
}

std::vector<Lpn> Ftl::CollectValid(uint32_t block) const {
  std::vector<Lpn> out(config_.pages_per_block);
  out.resize(CompactValid(block, out.data()));
  return out;
}

void Ftl::EraseBlock(uint32_t block) {
  assert(valid_count_[block] == 0);
  assert(write_ptr_[block] == config_.pages_per_block &&
         "erasing a partially written block");
  write_ptr_[block] = 0;
  ++erase_count_[block];
  ++stats_.blocks_erased;
  free_blocks_[DieOfBlock(block)].push_back(block);
}

void Ftl::GcSynchronous(int die) {
  while (!GcSatisfied(die)) {
    int victim = SelectGcVictim(die);
    if (victim < 0) return;  // nothing reclaimable
    if (valid_count_[victim] >= config_.pages_per_block) {
      // Every candidate is fully valid: relocation cannot gain space on
      // this die (it is packed solid). Bail out rather than livelock.
      return;
    }
    const uint32_t block = static_cast<uint32_t>(victim);
    const uint32_t survivors = CompactValid(block, gc_survivors_.data());
    // Append the survivors to the open block in runs that end where it
    // fills; a new block opens only when a survivor is left to write, as
    // it would for a page-at-a-time AllocateOnDie. The victim's p2l_ slots
    // go stale with the erase below; every one is rewritten before the
    // block is full again.
    for (uint32_t done = 0; done < survivors;) {
      const uint32_t open = WritableBlock(die);
      const uint32_t room = config_.pages_per_block - write_ptr_[open];
      const uint32_t run = std::min(survivors - done, room);
      const Ppn first = open * config_.pages_per_block + write_ptr_[open];
      const Lpn* lpns = &gc_survivors_[done];
      for (uint32_t i = 0; i < run; ++i) {
        // The survivors' l2p_ slots are scattered across the mapping.
        if (i + 8 < run) __builtin_prefetch(&l2p_[lpns[i + 8]], 1);
        const Lpn lpn = lpns[i];
        assert(BlockOf(l2p_[lpn]) == block);
        l2p_[lpn] = first + i;
        p2l_[first + i] = lpn;
      }
      write_ptr_[open] = static_cast<uint16_t>(write_ptr_[open] + run);
      valid_count_[open] = static_cast<uint16_t>(valid_count_[open] + run);
      done += run;
    }
    valid_count_[block] = 0;
    stats_.gc_pages_relocated += survivors;
    EraseBlock(block);
  }
}

void Ftl::StartWriteUnit() {
  if (++write_die_cursor_ == config_.dies()) write_die_cursor_ = 0;
  write_die_budget_ = config_.program_unit_pages;
}

int Ftl::NextWriteDie() {
  if (write_die_budget_ == 0) StartWriteUnit();
  --write_die_budget_;
  return write_die_cursor_;
}

template <typename NextLpn>
void Ftl::WriteUnits(uint64_t pages, NextLpn next_lpn) {
  const uint32_t unit = config_.program_unit_pages;
  // fits[d]: whole units die d's open block takes before it fills, while d
  // is above the GC watermark. Such a unit meets no GC check and no block
  // switch, so it skips the per-page steps. Only d's own writes and GC
  // change this, so it is refreshed after each unit written page by page.
  std::vector<uint32_t> fits(config_.dies(), 0);
  while (pages > 0) {
    if (write_die_budget_ == 0) StartWriteUnit();
    const int die = write_die_cursor_;
    const uint32_t n =
        static_cast<uint32_t>(std::min<uint64_t>(write_die_budget_, pages));
    write_die_budget_ -= n;
    pages -= n;
    if (n == unit && fits[die] > 0) {
      --fits[die];
      const uint32_t block = static_cast<uint32_t>(open_block_[die]);
      Ppn ppn = block * config_.pages_per_block + write_ptr_[block];
      write_ptr_[block] = static_cast<uint16_t>(write_ptr_[block] + n);
      // Counted up front, so an overwrite of a page written earlier in this
      // unit decrements a count that already includes it.
      valid_count_[block] = static_cast<uint16_t>(valid_count_[block] + n);
      for (uint32_t i = 0; i < n; ++i, ++ppn) {
        const Lpn lpn = next_lpn();
        Invalidate(lpn);
        l2p_[lpn] = ppn;
        p2l_[ppn] = lpn;
      }
      stats_.host_pages_written += n;
      continue;
    }
    // A partial unit, or one that opens a block or meets the watermark.
    for (uint32_t i = 0; i < n; ++i) {
      const Lpn lpn = next_lpn();
      if (!CanAllocate(die) || NeedsGc(die)) GcSynchronous(die);
      AllocateOnDie(lpn, die);
    }
    const int32_t open = open_block_[die];
    fits[die] = open >= 0 && !NeedsGc(die)
                    ? (config_.pages_per_block - write_ptr_[open]) / unit
                    : 0;
  }
}

void Ftl::PreconditionSequential() {
  Lpn next = 0;
  WriteUnits(config_.logical_pages(), [&next] { return next++; });
  // Preconditioning is device state, not workload history.
  stats_ = Stats{};
}

void Ftl::PreconditionRandom(double overwrite_factor, uint64_t seed) {
  PreconditionSequential();
  Rng rng(seed);
  const uint32_t pages = config_.logical_pages();
  const uint64_t total =
      static_cast<uint64_t>(overwrite_factor * static_cast<double>(pages));
  WriteUnits(total, [&rng, pages] {
    return static_cast<Lpn>(rng.NextBounded(pages));
  });
  stats_ = Stats{};
}

}  // namespace gimbal::ssd
