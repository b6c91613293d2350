#include "ssd/ftl.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/rng.h"

namespace gimbal::ssd {
namespace {

// Maps the `n` LPNs from `lpn` to the `n` PPNs from `ppn`, both ways, four
// pages per step as one 16-byte store into each map.
void MapRun(Ppn* l2p, Lpn* p2l, Lpn lpn, Ppn ppn, uint32_t n) {
  using Quad = uint32_t __attribute__((vector_size(16)));
  constexpr Quad kStep = {4, 4, 4, 4};
  Quad ppns = {ppn, ppn + 1, ppn + 2, ppn + 3};
  Quad lpns = {lpn, lpn + 1, lpn + 2, lpn + 3};
  Ppn* const to = l2p + lpn;
  Lpn* const from = p2l + ppn;
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4, ppns += kStep, lpns += kStep) {
    std::memcpy(to + i, &ppns, sizeof ppns);
    std::memcpy(from + i, &lpns, sizeof lpns);
  }
  for (; i < n; ++i) {
    to[i] = ppn + i;
    from[i] = lpn + i;
  }
}

}  // namespace

Ftl::Ftl(const SsdConfig& config) : config_(config) {
  // BlockOf is a shift, the write loops step whole program units, a full
  // block's page count must fit the 16-bit valid_count_ and write_ptr_, and
  // every block lives on a die. Checked in every build type.
  if (config_.channels < 1 || config_.dies_per_channel < 1) {
    std::fprintf(stderr,
                 "Ftl: channels=%d and dies_per_channel=%d must be at "
                 "least 1\n",
                 config_.channels, config_.dies_per_channel);
    std::abort();
  }
  if (!std::has_single_bit(config_.pages_per_block) ||
      config_.pages_per_block > UINT16_MAX ||
      config_.program_unit_pages == 0) {
    std::fprintf(stderr,
                 "Ftl: pages_per_block=%u must be a power of two no larger "
                 "than 32768 and program_unit_pages=%u at least 1\n",
                 config_.pages_per_block, config_.program_unit_pages);
    std::abort();
  }
  block_shift_ =
      static_cast<uint32_t>(std::countr_zero(config_.pages_per_block));
  const uint32_t blocks = config_.physical_blocks();
  const uint32_t pages = blocks * config_.pages_per_block;
  // kInvalidPage is all ones in every byte, so both maps start as a memset.
  static_assert(kInvalidPage == UINT32_MAX);
  l2p_.resize(config_.logical_pages());
  p2l_.resize(pages);
  std::memset(l2p_.data(), 0xFF, l2p_.size() * sizeof(Ppn));
  std::memset(p2l_.data(), 0xFF, p2l_.size() * sizeof(Lpn));
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

void Ftl::RequireFresh(const char* caller) const {
  // Every mapping goes through an open block, so an FTL with none has
  // mapped nothing.
  bool fresh = write_die_cursor_ == 0 && write_die_budget_ == 0;
  for (const int32_t open : open_block_) fresh = fresh && open < 0;
  if (!fresh) {
    std::fprintf(stderr,
                 "Ftl: %s needs a fresh FTL (no mapped LPN, open block or "
                 "moved write cursor)\n",
                 caller);
    std::abort();
  }
}

void Ftl::PreconditionSequential() {
  // The layout below is the one a page-by-page fill (NextWriteDie, the GC
  // check and AllocateOnDie per page) leaves on a fresh FTL: free lists in
  // block order, erase counts all 0, nothing mapped.
  RequireFresh("PreconditionSequential");
  const int dies = config_.dies();
  // Unit u holds LPNs [u * unit, (u + 1) * unit), the last one possibly
  // partial, and lands on die (u + 1) % dies: the cursor steps before its
  // first unit. So die d holds units first, first + dies, ... with
  // first = (d + dies - 1) % dies, and they fill its blocks one after
  // another, each opened by OpenNewBlock as the per-page path opens it. No
  // LPN is written twice, so every written page stays valid and the GC
  // check never fires (no full block has a stale page to reclaim).
  const uint32_t lpns = config_.logical_pages();
  const uint32_t unit = config_.program_unit_pages;
  const uint32_t per_block = config_.pages_per_block;
  const uint64_t units = (uint64_t{lpns} + unit - 1) / unit;
  for (int d = 0; d < dies; ++d) {
    const uint64_t first = static_cast<uint64_t>((d + dies - 1) % dies);
    if (first >= units) continue;
    const uint64_t last = first + (units - 1 - first) / dies * dies;
    const uint64_t die_pages = (last - first) / dies * unit +
                               std::min<uint64_t>(unit, lpns - last * unit);
    const uint64_t die_blocks = (die_pages + per_block - 1) / per_block;
    if (die_blocks > free_blocks_[d].size()) {
      std::fprintf(stderr,
                   "Ftl: die %d needs %llu blocks for its share of the "
                   "logical space but has %zu\n",
                   d, static_cast<unsigned long long>(die_blocks),
                   free_blocks_[d].size());
      std::abort();
    }
    Lpn lpn = static_cast<Lpn>(first * unit);
    uint32_t unit_left = unit;
    for (uint64_t written = 0; written < die_pages;) {
      OpenNewBlock(d);
      const uint32_t block = static_cast<uint32_t>(open_block_[d]);
      const uint32_t n = static_cast<uint32_t>(
          std::min<uint64_t>(per_block, die_pages - written));
      for (uint32_t i = 0; i < n;) {  // a unit may straddle two blocks
        const uint32_t run = std::min(unit_left, n - i);
        MapRun(l2p_.data(), p2l_.data(), lpn, block * per_block + i, run);
        i += run;
        lpn += run;
        unit_left -= run;
        if (unit_left == 0) {  // on to the die's next unit
          unit_left = unit;
          lpn += (dies - 1) * unit;
        }
      }
      write_ptr_[block] = static_cast<uint16_t>(n);
      valid_count_[block] = static_cast<uint16_t>(n);
      written += n;
    }
  }
  // The cursor rests on the last unit's die, with what that unit, if
  // partial, left of its budget.
  write_die_cursor_ = static_cast<int>(units % dies);
  write_die_budget_ = static_cast<uint32_t>(units * unit - lpns);
  // Preconditioning is device state, not workload history.
  stats_ = Stats{};
}

void Ftl::PreconditionRandom(double overwrite_factor, uint64_t seed) {
  PreconditionSequential();
  Rng rng(seed);
  const uint32_t lpns = config_.logical_pages();
  uint64_t pages =
      static_cast<uint64_t>(overwrite_factor * static_cast<double>(lpns));
  // Host-writes `pages` uniform random LPNs on the dies and with the GC
  // checks of `pages` NextWriteDie + AllocateOnDie steps, one program unit
  // at a time. fits[d]: whole units die d's open block takes before it
  // fills, while d is above the GC watermark. Such a unit meets no GC
  // check and no block switch, so it skips the per-page steps. Only d's own
  // writes and GC change this, so it is refreshed after each unit written
  // page by page.
  const uint32_t unit = config_.program_unit_pages;
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
        const Lpn lpn = static_cast<Lpn>(rng.NextBounded(lpns));
        Invalidate(lpn);
        l2p_[lpn] = ppn;
        p2l_[ppn] = lpn;
      }
      stats_.host_pages_written += n;
      continue;
    }
    // A partial unit, or one that opens a block or meets the watermark.
    for (uint32_t i = 0; i < n; ++i) {
      const Lpn lpn = static_cast<Lpn>(rng.NextBounded(lpns));
      if (!CanAllocate(die) || NeedsGc(die)) GcSynchronous(die);
      AllocateOnDie(lpn, die);
    }
    const int32_t open = open_block_[die];
    fits[die] = open >= 0 && !NeedsGc(die)
                    ? (config_.pages_per_block - write_ptr_[open]) / unit
                    : 0;
  }
  stats_ = Stats{};
}

Ftl::Image Ftl::Snapshot() const {
  Image image;
  image.pages_per_block = config_.pages_per_block;
  image.l2p = l2p_;
  image.write_ptr = write_ptr_;
  image.erase_count = erase_count_;
  image.free_blocks = free_blocks_;
  image.open_block = open_block_;
  image.stats = stats_;
  image.write_die_cursor = write_die_cursor_;
  image.write_die_budget = write_die_budget_;
  return image;
}

void Ftl::Restore(const Image& image) {
  RequireFresh("Restore");
  if (image.pages_per_block != config_.pages_per_block ||
      image.l2p.size() != l2p_.size() ||
      image.write_ptr.size() != write_ptr_.size() ||
      image.open_block.size() != open_block_.size()) {
    std::fprintf(stderr,
                 "Ftl: image of %zu LPNs and %zu blocks of %u pages on %zu "
                 "dies does not match this FTL's %zu LPNs and %zu blocks of "
                 "%u pages on %zu dies\n",
                 image.l2p.size(), image.write_ptr.size(),
                 image.pages_per_block, image.open_block.size(), l2p_.size(),
                 write_ptr_.size(), config_.pages_per_block,
                 open_block_.size());
    std::abort();
  }
  l2p_ = image.l2p;
  write_ptr_ = image.write_ptr;
  erase_count_ = image.erase_count;
  free_blocks_ = image.free_blocks;
  open_block_ = image.open_block;
  stats_ = image.stats;
  write_die_cursor_ = image.write_die_cursor;
  write_die_budget_ = image.write_die_budget;
  // A fresh FTL's reverse map is all kInvalidPage and its valid counts 0;
  // every mapped LPN claims its physical page back.
  for (Lpn lpn = 0; lpn < l2p_.size(); ++lpn) {
    const Ppn ppn = l2p_[lpn];
    if (ppn == kInvalidPage) continue;
    assert(BlockOf(ppn) < write_ptr_.size() &&
           (ppn & (config_.pages_per_block - 1)) < write_ptr_[BlockOf(ppn)] &&
           p2l_[ppn] == kInvalidPage);
    p2l_[ppn] = lpn;
    ++valid_count_[BlockOf(ppn)];
  }
}

}  // namespace gimbal::ssd
