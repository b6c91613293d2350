// Unit tests for the flash translation layer: mapping, allocation, GC
// victim selection, erase accounting, wear levelling, preconditioning.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "common/rng.h"
#include "ftl_state_hash.h"
#include "ssd/ftl.h"

namespace gimbal::ssd {
namespace {

SsdConfig TinyConfig() {
  SsdConfig c;
  c.channels = 2;
  c.dies_per_channel = 2;          // 4 dies
  c.pages_per_block = 16;          // 64 KiB blocks
  c.logical_bytes = 2ull << 20;    // 2 MiB = 512 pages
  c.over_provisioning = 0.25;
  return c;
}

TEST(Ftl, StartsUnmapped) {
  Ftl ftl(TinyConfig());
  for (Lpn l = 0; l < ftl.config().logical_pages(); ++l) {
    EXPECT_EQ(ftl.Translate(l), kInvalidPage);
  }
}

TEST(Ftl, AllocateMapsAndTranslates) {
  Ftl ftl(TinyConfig());
  Ppn p = ftl.AllocateOnDie(5, 0);
  EXPECT_NE(p, kInvalidPage);
  EXPECT_EQ(ftl.Translate(5), p);
  EXPECT_EQ(ftl.DieOfPpn(p), 0);
}

TEST(Ftl, OverwriteInvalidatesOldPage) {
  Ftl ftl(TinyConfig());
  Ppn p1 = ftl.AllocateOnDie(5, 0);
  uint32_t b1 = ftl.BlockOf(p1);
  EXPECT_EQ(ftl.ValidPages(b1), 1);
  Ppn p2 = ftl.AllocateOnDie(5, 0);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(ftl.Translate(5), p2);
  // Old copy stale; block valid count reflects only live data.
  uint32_t b2 = ftl.BlockOf(p2);
  if (b1 == b2) {
    EXPECT_EQ(ftl.ValidPages(b1), 1);
  } else {
    EXPECT_EQ(ftl.ValidPages(b1), 0);
  }
}

TEST(Ftl, SequentialAllocationFillsBlockContiguously) {
  Ftl ftl(TinyConfig());
  Ppn prev = ftl.AllocateOnDie(0, 2);
  for (Lpn l = 1; l < ftl.config().pages_per_block; ++l) {
    Ppn p = ftl.AllocateOnDie(l, 2);
    EXPECT_EQ(p, prev + 1);
    prev = p;
  }
}

TEST(Ftl, BlocksBelongToCorrectDie) {
  SsdConfig c = TinyConfig();
  Ftl ftl(c);
  for (int die = 0; die < c.dies(); ++die) {
    Ppn p = ftl.AllocateOnDie(static_cast<Lpn>(die), die);
    EXPECT_EQ(ftl.DieOfPpn(p), die);
  }
}

TEST(Ftl, FreeBlockCountDecreasesAsBlocksOpen) {
  SsdConfig c = TinyConfig();
  Ftl ftl(c);
  int before = ftl.FreeBlocks(0);
  // Fill exactly one block on die 0.
  for (uint32_t i = 0; i < c.pages_per_block; ++i) {
    ftl.AllocateOnDie(i, 0);
  }
  // Opening the first block consumed a free block; the next allocation
  // opens another.
  EXPECT_EQ(ftl.FreeBlocks(0), before - 1);
  ftl.AllocateOnDie(100, 0);
  EXPECT_EQ(ftl.FreeBlocks(0), before - 2);
}

TEST(Ftl, VictimSelectionPrefersFewestValid) {
  SsdConfig c = TinyConfig();
  Ftl ftl(c);
  // Fill two blocks on die 0 with distinct LPNs.
  for (uint32_t i = 0; i < 2 * c.pages_per_block; ++i) {
    ftl.AllocateOnDie(i, 0);
  }
  // Invalidate most of the first block by rewriting its LPNs on die 1.
  for (uint32_t i = 0; i < c.pages_per_block - 1; ++i) {
    ftl.AllocateOnDie(i, 1);
  }
  int victim = ftl.SelectGcVictim(0);
  ASSERT_GE(victim, 0);
  EXPECT_EQ(ftl.ValidPages(static_cast<uint32_t>(victim)), 1);
}

TEST(Ftl, VictimNeverOpenBlock) {
  SsdConfig c = TinyConfig();
  Ftl ftl(c);
  // Only a partially-filled open block exists: no victim available.
  ftl.AllocateOnDie(0, 0);
  EXPECT_EQ(ftl.SelectGcVictim(0), -1);
}

TEST(Ftl, CollectValidReturnsLiveLpns) {
  SsdConfig c = TinyConfig();
  Ftl ftl(c);
  for (uint32_t i = 0; i < c.pages_per_block; ++i) ftl.AllocateOnDie(i, 0);
  ftl.AllocateOnDie(3, 1);  // move lpn 3 away
  Ppn p0 = ftl.Translate(0);
  uint32_t block = ftl.BlockOf(p0);
  auto valid = ftl.CollectValid(block);
  std::set<Lpn> vset(valid.begin(), valid.end());
  EXPECT_EQ(vset.count(3), 0u);
  EXPECT_EQ(vset.count(0), 1u);
  EXPECT_EQ(valid.size(), c.pages_per_block - 1);
}

TEST(Ftl, EraseReturnsBlockToFreeList) {
  SsdConfig c = TinyConfig();
  Ftl ftl(c);
  for (uint32_t i = 0; i < c.pages_per_block; ++i) ftl.AllocateOnDie(i, 0);
  uint32_t block = ftl.BlockOf(ftl.Translate(0));
  // Invalidate everything by rewriting on die 1.
  for (uint32_t i = 0; i < c.pages_per_block; ++i) ftl.AllocateOnDie(i, 1);
  EXPECT_EQ(ftl.ValidPages(block), 0);
  int free_before = ftl.FreeBlocks(0);
  ftl.EraseBlock(block);
  EXPECT_EQ(ftl.FreeBlocks(0), free_before + 1);
  EXPECT_EQ(ftl.EraseCount(block), 1u);
}

TEST(Ftl, GcSynchronousReclaimsSpace) {
  SsdConfig c = TinyConfig();
  Ftl ftl(c);
  ftl.PreconditionSequential();
  // Hammer die 0 with overwrites until GC is needed, then run it. Note the
  // hammering deliberately over-fills die 0 with valid data, so GC may not
  // reach the full high watermark — but it must reclaim space and, above
  // all, terminate (regression test for a GC livelock on packed dies).
  Rng rng(1);
  uint32_t pages = c.logical_pages();
  while (!ftl.NeedsGc(0)) {
    ftl.AllocateOnDie(static_cast<Lpn>(rng.NextBounded(pages)), 0);
    if (!ftl.CanAllocate(0)) break;
  }
  int before = ftl.FreeBlocks(0);
  const Ftl::Stats stats_before = ftl.stats();
  std::vector<uint16_t> valid_before;
  std::vector<uint32_t> erases_before;
  for (uint32_t b = 0; b < c.physical_blocks(); ++b) {
    valid_before.push_back(ftl.ValidPages(b));
    erases_before.push_back(ftl.EraseCount(b));
  }
  const int first_victim = ftl.SelectGcVictim(0);
  ASSERT_GE(first_victim, 0);
  const std::vector<Lpn> survivors =
      ftl.CollectValid(static_cast<uint32_t>(first_victim));
  ASSERT_FALSE(survivors.empty());

  ftl.GcSynchronous(0);
  EXPECT_TRUE(ftl.GcSatisfied(0) || ftl.FreeBlocks(0) >= before);
  EXPECT_GT(ftl.stats().blocks_erased, 0u);

  // Every erased block was a victim erased once; GC relocated exactly its
  // pre-GC valid pages and wrote nothing on the host's account.
  uint64_t victims = 0, victim_valid = 0;
  for (uint32_t b = 0; b < c.physical_blocks(); ++b) {
    uint32_t erased = ftl.EraseCount(b) - erases_before[b];
    ASSERT_LE(erased, 1u) << "block " << b;
    if (erased == 0) continue;
    EXPECT_EQ(ftl.DieOfBlock(b), 0);
    ++victims;
    victim_valid += valid_before[b];
  }
  EXPECT_EQ(ftl.stats().blocks_erased - stats_before.blocks_erased, victims);
  EXPECT_EQ(ftl.stats().gc_pages_relocated - stats_before.gc_pages_relocated,
            victim_valid);
  EXPECT_EQ(ftl.stats().host_pages_written, stats_before.host_pages_written);

  // The first victim's survivors were appended to die 0's open block in
  // their old block order: each one follows its predecessor, or starts a
  // freshly opened block.
  for (size_t i = 0; i < survivors.size(); ++i) {
    Ppn p = ftl.Translate(survivors[i]);
    EXPECT_EQ(ftl.DieOfPpn(p), 0);
    EXPECT_NE(ftl.BlockOf(p), static_cast<uint32_t>(first_victim));
    if (i > 0) {
      Ppn prev = ftl.Translate(survivors[i - 1]);
      EXPECT_TRUE(p == prev + 1 || p % c.pages_per_block == 0)
          << "survivor " << i << " at " << p << ", previous at " << prev;
    }
  }
}

TEST(Ftl, PreconditionSequentialMapsEverything) {
  Ftl ftl(TinyConfig());
  ftl.PreconditionSequential();
  for (Lpn l = 0; l < ftl.config().logical_pages(); ++l) {
    EXPECT_NE(ftl.Translate(l), kInvalidPage) << "lpn " << l;
  }
  // Stats are reset after preconditioning.
  EXPECT_EQ(ftl.stats().host_pages_written, 0u);
}

TEST(Ftl, PreconditionSequentialStripesAcrossDies) {
  SsdConfig c = TinyConfig();
  Ftl ftl(c);
  ftl.PreconditionSequential();
  // Consecutive read units land on different dies.
  int die0 = ftl.DieOfPpn(ftl.Translate(0));
  int die1 = ftl.DieOfPpn(ftl.Translate(c.read_unit_pages));
  EXPECT_NE(die0, die1);
  // Pages within one read unit share a die and are physically consecutive.
  EXPECT_EQ(ftl.Translate(1), ftl.Translate(0) + 1);
}

TEST(Ftl, PreconditionRandomMapsEverything) {
  Ftl ftl(TinyConfig());
  ftl.PreconditionRandom(2.0);
  for (Lpn l = 0; l < ftl.config().logical_pages(); ++l) {
    EXPECT_NE(ftl.Translate(l), kInvalidPage);
  }
}

TEST(Ftl, FragmentedStateScattersMapping) {
  SsdConfig c = TinyConfig();
  Ftl clean(c), frag(c);
  clean.PreconditionSequential();
  frag.PreconditionRandom(3.0);
  // Count physically-contiguous consecutive-LPN pairs.
  auto contiguity = [&](const Ftl& f) {
    int contiguous = 0;
    for (Lpn l = 1; l < c.logical_pages(); ++l) {
      if (f.Translate(l) == f.Translate(l - 1) + 1) ++contiguous;
    }
    return contiguous;
  };
  EXPECT_GT(contiguity(clean), contiguity(frag) * 2);
}

TEST(Ftl, WriteAmplificationUnderRandomOverwrite) {
  SsdConfig c;
  c.channels = 2;
  c.dies_per_channel = 2;
  c.pages_per_block = 64;
  c.logical_bytes = 16ull << 20;  // 4096 pages
  c.over_provisioning = 0.12;
  Ftl ftl(c);
  ftl.PreconditionRandom(3.0);
  // Now measure steady-state WA over another pass of random writes.
  Rng rng(99);
  uint32_t pages = c.logical_pages();
  for (uint64_t i = 0; i < 2ull * pages; ++i) {
    int die = ftl.NextWriteDie();
    if (!ftl.CanAllocate(die) || ftl.NeedsGc(die)) ftl.GcSynchronous(die);
    ftl.AllocateOnDie(static_cast<Lpn>(rng.NextBounded(pages)), die);
  }
  double wa = ftl.stats().WriteAmplification();
  // Greedy GC at 12% OP: WA should be substantial but bounded.
  EXPECT_GT(wa, 2.0);
  EXPECT_LT(wa, 10.0);
}

TEST(Ftl, SequentialOverwriteHasLowWriteAmplification) {
  SsdConfig c;
  c.channels = 2;
  c.dies_per_channel = 2;
  c.pages_per_block = 64;
  c.logical_bytes = 16ull << 20;
  c.over_provisioning = 0.12;
  Ftl ftl(c);
  ftl.PreconditionSequential();
  // Sequentially overwrite the space twice: invalidation aligns with
  // blocks, so GC victims are (nearly) empty.
  uint32_t pages = c.logical_pages();
  for (uint64_t i = 0; i < 2ull * pages; ++i) {
    Lpn lpn = static_cast<Lpn>(i % pages);
    int die = ftl.NextWriteDie();
    if (!ftl.CanAllocate(die) || ftl.NeedsGc(die)) ftl.GcSynchronous(die);
    ftl.AllocateOnDie(lpn, die);
  }
  EXPECT_LT(ftl.stats().WriteAmplification(), 1.3);
}

TEST(Ftl, WearLevellingBoundsEraseSkew) {
  SsdConfig c;
  c.channels = 1;
  c.dies_per_channel = 2;
  c.pages_per_block = 32;
  c.logical_bytes = 4ull << 20;
  c.over_provisioning = 0.25;
  Ftl ftl(c);
  ftl.PreconditionRandom(6.0);
  // Compare erase counts across blocks: dynamic wear levelling should keep
  // the spread moderate.
  uint32_t blocks = c.physical_blocks();
  uint32_t lo = UINT32_MAX, hi = 0;
  for (uint32_t b = 0; b < blocks; ++b) {
    lo = std::min(lo, ftl.EraseCount(b));
    hi = std::max(hi, ftl.EraseCount(b));
  }
  EXPECT_LE(hi - lo, hi / 2 + 8);
}

TEST(Ftl, StatsAccounting) {
  SsdConfig c = TinyConfig();
  Ftl ftl(c);
  ftl.AllocateOnDie(0, 0);
  ftl.BeginGcAllocation();
  ftl.AllocateOnDie(1, 0);
  ftl.EndGcAllocation();
  EXPECT_EQ(ftl.stats().host_pages_written, 1u);
  EXPECT_EQ(ftl.stats().gc_pages_relocated, 1u);
  EXPECT_NEAR(ftl.stats().WriteAmplification(), 2.0, 1e-9);
}

// The preconditioned state, and the state after further GC-driven
// overwrites, must not drift: every golden figure and benchmark model
// metric starts from it. The expected hashes were recorded from the
// per-page relocation and per-page host-write paths.
struct PinnedCase {
  int channels;
  int dies_per_channel;
  uint32_t pages_per_block;
  uint64_t logical_mb;
  double overwrite_factor;
  uint64_t preconditioned;
  uint64_t overwritten;
  uint32_t program_unit_pages = 4;
  bool p3600 = false;
};
const PinnedCase kPinnedCases[] = {
    // Default geometry at the benches' capacities.
    {8, 4, 128, 256, 3.0,
     5822728655678711177ull, 11782001301097393080ull},
    {8, 4, 128, 512, 3.0,
     6643617824194146886ull, 2836755773419283562ull},
    // The GeometrySweep geometries (property_sweep_test.cc).
    {2, 2, 64, 64, 2.0,
     3566351673454484078ull, 1443142606985271476ull},
    {4, 4, 128, 128, 2.0,
     7221530404202578170ull, 9784381469766902372ull},
    {8, 4, 128, 256, 2.0,
     5943034321959177375ull, 6059682061455256512ull},
    {8, 8, 64, 256, 2.0,
     6911384586588380937ull, 771501335438343357ull},
    {1, 4, 128, 64, 2.0,
     18205322116397172287ull, 3973338093374026219ull},
    // The P3600-like device (25% over-provisioning).
    {8, 4, 128, 256, 3.0,
     8370872436441260398ull, 3273658707949685160ull, 4, true},
    // Wider program units; 3 pages do not divide a 128-page block.
    {8, 4, 128, 128, 3.0,
     15628741775128311239ull, 10663072752823164054ull, 8},
    {8, 4, 128, 128, 3.0,
     4527904801808629113ull, 13846383886870114599ull, 3},
};

SsdConfig ConfigOf(const PinnedCase& k) {
  SsdConfig c = k.p3600 ? SsdConfig::IntelP3600Like() : SsdConfig{};
  c.program_unit_pages = k.program_unit_pages;
  c.channels = k.channels;
  c.dies_per_channel = k.dies_per_channel;
  c.pages_per_block = k.pages_per_block;
  c.logical_bytes = k.logical_mb << 20;
  return c;
}

::testing::Message Describe(const PinnedCase& k) {
  return ::testing::Message()
         << k.channels << "x" << k.dies_per_channel << " ppb "
         << k.pages_per_block << " " << k.logical_mb << " MiB x"
         << k.overwrite_factor << " unit " << k.program_unit_pages
         << (k.p3600 ? " P3600" : "");
}

// 100k uniform random host writes with the GC checks a device makes.
void OverwriteRandomly(Ftl& ftl) {
  Rng rng(7);
  const uint32_t pages = ftl.config().logical_pages();
  for (int i = 0; i < 100000; ++i) {
    Lpn lpn = static_cast<Lpn>(rng.NextBounded(pages));
    int die = ftl.NextWriteDie();
    if (!ftl.CanAllocate(die) || ftl.NeedsGc(die)) ftl.GcSynchronous(die);
    ftl.AllocateOnDie(lpn, die);
  }
}

TEST(Ftl, PreconditionedStateIsPinned) {
  for (const PinnedCase& k : kPinnedCases) {
    SCOPED_TRACE(Describe(k));
    Ftl ftl(ConfigOf(k));
    ftl.PreconditionRandom(k.overwrite_factor, 42);
    EXPECT_EQ(StateHash(ftl), k.preconditioned);
    OverwriteRandomly(ftl);
    EXPECT_EQ(StateHash(ftl), k.overwritten);
  }
}

// A snapshot restored into a fresh FTL must be the preconditioned state
// itself: the same pins, and the same state after the same overwrites, so
// every GC of those overwrites reads the rebuilt reverse map and valid
// counts.
TEST(Ftl, ImageRoundTripIsPinned) {
  for (const PinnedCase& k : kPinnedCases) {
    SCOPED_TRACE(Describe(k));
    Ftl::Image image;
    {
      Ftl source(ConfigOf(k));
      source.PreconditionRandom(k.overwrite_factor, 42);
      image = source.Snapshot();
    }
    Ftl ftl(ConfigOf(k));
    ftl.Restore(image);
    EXPECT_EQ(StateHash(ftl), k.preconditioned);
    OverwriteRandomly(ftl);
    EXPECT_EQ(StateHash(ftl), k.overwritten);
  }
}

// The clean state PreconditionSequential leaves, and where the write-die
// cursor goes next: StateHash does not read the cursor or its budget, so
// the next 4 program units per die of NextWriteDie are hashed separately.
// The expected hashes were recorded from the page-by-page sequential fill.
TEST(Ftl, CleanStateIsPinned) {
  struct Case {
    int channels;
    int dies_per_channel;
    uint32_t pages_per_block;
    uint64_t logical_kib;
    uint32_t program_unit_pages;
    bool p3600;
    uint64_t clean;
    uint64_t next_dies;
  };
  const Case cases[] = {
      // The PreconditionedStateIsPinned geometries.
      {8, 4, 128, 256 << 10, 4, false,
       11807205674423346487ull, 18414506129026596389ull},
      {8, 4, 128, 512 << 10, 4, false,
       5395689009335490871ull, 18414506129026596389ull},
      {2, 2, 64, 64 << 10, 4, false,
       13762651851584232759ull, 4822714947213621637ull},
      {4, 4, 128, 128 << 10, 4, false,
       2487693807343851127ull, 15228886676816678309ull},
      {8, 8, 64, 256 << 10, 4, false,
       549718426692303543ull, 5440503355906824997ull},
      {1, 4, 128, 64 << 10, 4, false,
       11934917755815040231ull, 4822714947213621637ull},
      {8, 4, 128, 256 << 10, 4, true,
       17946428448374368567ull, 18414506129026596389ull},
      {8, 4, 128, 128 << 10, 8, false,
       4391699965279366039ull, 15948009219642178853ull},
      {8, 4, 128, 128 << 10, 3, false,
       5724095549920897347ull, 15880926439924631077ull},
      // Three dies; 256 pages leave a 1-page last unit, and neither unit
      // divides a 32-page block.
      {1, 3, 32, 1 << 10, 3, false,
       5143648211054406302ull, 15853035141001586857ull},
      {1, 3, 32, 1 << 10, 5, false,
       3981382602341720388ull, 988532942258748921ull},
      // Fewer units than dies: most dies are never written.
      {8, 4, 128, 64, 4, false,
       4489955168867785475ull, 10055757712042641701ull},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(::testing::Message()
                 << k.channels << "x" << k.dies_per_channel << " ppb "
                 << k.pages_per_block << " " << k.logical_kib << " KiB unit "
                 << k.program_unit_pages << (k.p3600 ? " P3600" : ""));
    SsdConfig c = k.p3600 ? SsdConfig::IntelP3600Like() : SsdConfig{};
    c.program_unit_pages = k.program_unit_pages;
    c.channels = k.channels;
    c.dies_per_channel = k.dies_per_channel;
    c.pages_per_block = k.pages_per_block;
    c.logical_bytes = k.logical_kib << 10;
    Ftl ftl(c);
    ftl.PreconditionSequential();
    EXPECT_EQ(StateHash(ftl), k.clean);
    uint64_t h = 14695981039346656037ull;
    for (uint32_t i = 0; i < 4 * c.program_unit_pages * c.dies(); ++i) {
      h = (h ^ static_cast<uint64_t>(ftl.NextWriteDie())) * 1099511628211ull;
    }
    EXPECT_EQ(h, k.next_dies);
  }
}

TEST(FtlDeathTest, RejectsNonPowerOfTwoBlocksAndEmptyUnits) {
  SsdConfig c = TinyConfig();
  c.pages_per_block = 96;
  EXPECT_DEATH(Ftl{c}, "pages_per_block=96 must be a power of two");
  c = TinyConfig();
  c.program_unit_pages = 0;
  EXPECT_DEATH(Ftl{c}, "program_unit_pages=0 at least 1");
}

// valid_count_ and write_ptr_ are 16-bit: a 65536-page block would wrap
// its write pointer to 0 when full, so the open block would never close.
TEST(FtlDeathTest, RejectsBlocksPastTheSixteenBitCounters) {
  SsdConfig c = TinyConfig();
  c.pages_per_block = 1u << 16;
  EXPECT_DEATH(Ftl{c}, "pages_per_block=65536 must be a power of two no "
                       "larger than 32768");
}

// physical_blocks() divides by the die count.
TEST(FtlDeathTest, RejectsGeometriesWithoutDies) {
  SsdConfig c = TinyConfig();
  c.channels = 0;
  EXPECT_DEATH(Ftl{c}, "channels=0 and dies_per_channel=2 must be at least 1");
  c = TinyConfig();
  c.dies_per_channel = 0;
  EXPECT_DEATH(Ftl{c}, "channels=2 and dies_per_channel=0 must be at least 1");
}

// A program unit wider than a die's share of the blocks piles the logical
// space onto a few dies: here the one 128-page unit lands whole on die 1,
// which has 13 blocks of 8 pages.
TEST(FtlDeathTest, PreconditionRejectsALayoutThatOverflowsADie) {
  SsdConfig c;
  c.channels = 1;
  c.dies_per_channel = 2;
  c.pages_per_block = 8;
  c.program_unit_pages = 128;
  c.logical_bytes = 128ull << 12;  // 128 pages
  Ftl ftl(c);
  EXPECT_DEATH(ftl.PreconditionSequential(),
               "die 1 needs 16 blocks for its share of the logical space "
               "but has 13");
}

// The clean layout is computed for a fresh FTL, so preconditioning one that
// has written a page, or whose write cursor has moved, must not go ahead.
TEST(FtlDeathTest, PreconditionNeedsAFreshFtl) {
  const char* const kNotFresh = "PreconditionSequential needs a fresh FTL";
  {
    Ftl ftl(TinyConfig());
    ftl.AllocateOnDie(7, 1);
    EXPECT_DEATH(ftl.PreconditionSequential(), kNotFresh);
  }
  {
    Ftl ftl(TinyConfig());
    ftl.PreconditionSequential();
    EXPECT_DEATH(ftl.PreconditionRandom(1.0), kNotFresh);
  }
  {
    Ftl ftl(TinyConfig());
    ftl.NextWriteDie();
    EXPECT_DEATH(ftl.PreconditionSequential(), kNotFresh);
  }
}

// Restore keeps PreconditionRandom's contract: it rebuilds a whole state,
// so it must not land on top of one.
TEST(FtlDeathTest, RestoreNeedsAFreshFtl) {
  Ftl source(TinyConfig());
  source.PreconditionRandom(1.0);
  const Ftl::Image image = source.Snapshot();
  const char* const kNotFresh = "Restore needs a fresh FTL";
  {
    Ftl ftl(TinyConfig());
    ftl.AllocateOnDie(7, 1);
    EXPECT_DEATH(ftl.Restore(image), kNotFresh);
  }
  {
    Ftl ftl(TinyConfig());
    ftl.Restore(image);
    EXPECT_DEATH(ftl.Restore(image), kNotFresh);
  }
  {
    Ftl ftl(TinyConfig());
    ftl.NextWriteDie();
    EXPECT_DEATH(ftl.Restore(image), kNotFresh);
  }
}

// An image maps pages of its own geometry only.
TEST(FtlDeathTest, RestoreRejectsAnImageOfAnotherGeometry) {
  Ftl source(TinyConfig());
  source.PreconditionRandom(1.0);
  const Ftl::Image image = source.Snapshot();
  SsdConfig bigger = TinyConfig();
  bigger.logical_bytes *= 2;
  Ftl ftl(bigger);
  EXPECT_DEATH(ftl.Restore(image),
               "image of 512 LPNs and 56 blocks of 16 pages on 4 dies does "
               "not match this FTL's 1024 LPNs and 96 blocks of 16 pages on "
               "4 dies");
  SsdConfig wider = TinyConfig();
  wider.pages_per_block = 32;
  wider.logical_bytes *= 2;  // the same block count, of twice the pages
  Ftl other(wider);
  EXPECT_DEATH(other.Restore(image), "does not match this FTL's");
}

TEST(Ftl, NextWriteDieAdvancesPerProgramUnit) {
  SsdConfig c = TinyConfig();
  Ftl ftl(c);
  std::set<int> first_unit;
  for (uint32_t i = 0; i < c.program_unit_pages; ++i) {
    first_unit.insert(ftl.NextWriteDie());
  }
  EXPECT_EQ(first_unit.size(), 1u);  // whole unit on one die
  EXPECT_NE(*first_unit.begin(), ftl.NextWriteDie());  // then advances
}

}  // namespace
}  // namespace gimbal::ssd
