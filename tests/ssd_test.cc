// Integration tests for the timed SSD model: latency composition, bandwidth
// asymmetries, write buffering, garbage collection interference — the §2.3
// phenomena the Gimbal algorithms depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "ftl_state_hash.h"
#include "sim/simulator.h"
#include "ssd/null_device.h"
#include "ssd/ssd.h"

namespace gimbal::ssd {
namespace {

SsdConfig SmallConfig() {
  SsdConfig c;                     // DCT983-like timing
  c.logical_bytes = 256ull << 20;  // keep preconditioning fast in tests
  return c;
}

// Closed-loop driver hammering a raw device with `qd` outstanding IOs of
// one shape, collecting bytes completed and a latency histogram.
class ClosedLoop {
 public:
  ClosedLoop(sim::Simulator& sim, BlockDevice& dev, IoType type,
             uint32_t io_bytes, bool sequential, uint32_t qd,
             uint64_t region_bytes, uint64_t seed = 1)
      : sim_(sim), dev_(dev), type_(type), io_bytes_(io_bytes),
        sequential_(sequential), qd_(qd), region_bytes_(region_bytes),
        rng_(seed) {}

  void Start() {
    for (uint32_t i = 0; i < qd_; ++i) IssueOne();
  }

  uint64_t bytes_done = 0;
  uint64_t ios_done = 0;
  LatencyHistogram latency;

 private:
  void IssueOne() {
    DeviceIo io;
    io.type = type_;
    io.length = io_bytes_;
    uint64_t slots = region_bytes_ / io_bytes_;
    uint64_t slot = sequential_ ? (seq_cursor_++ % slots)
                                : rng_.NextBounded(slots);
    io.offset = slot * io_bytes_;
    dev_.Submit(io, [this](const DeviceCompletion& cpl) {
      bytes_done += cpl.length;
      ++ios_done;
      latency.Record(cpl.latency());
      IssueOne();
    });
  }

  sim::Simulator& sim_;
  BlockDevice& dev_;
  IoType type_;
  uint32_t io_bytes_;
  bool sequential_;
  uint32_t qd_;
  uint64_t region_bytes_;
  Rng rng_;
  uint64_t seq_cursor_ = 0;
};

double RunBandwidthMBps(sim::Simulator& sim, ClosedLoop& loop, Tick duration) {
  Tick start = sim.now();
  uint64_t bytes_before = loop.bytes_done;
  loop.Start();
  sim.RunUntil(start + duration);
  return BytesToMiB(loop.bytes_done - bytes_before) / ToSec(duration);
}

TEST(Ssd, UnloadedSmallReadLatency) {
  sim::Simulator sim;
  Ssd dev(sim, SmallConfig());
  dev.PreconditionClean();
  Tick lat = -1;
  DeviceIo io{.cookie = 1, .type = IoType::kRead, .offset = 0, .length = 4096};
  dev.Submit(io, [&](const DeviceCompletion& c) { lat = c.latency(); });
  sim.Run();
  // cmd cost (~2.4us) + sense (65us) + 4K channel transfer (~10us).
  EXPECT_GT(lat, Microseconds(60));
  EXPECT_LT(lat, Microseconds(120));
}

TEST(Ssd, UnloadedLargeReadLatencyScalesSublinearly) {
  sim::Simulator sim;
  Ssd dev(sim, SmallConfig());
  dev.PreconditionClean();
  Tick lat4k = 0, lat128k = 0;
  dev.Submit({.cookie = 1, .type = IoType::kRead, .offset = 0, .length = 4096},
             [&](const DeviceCompletion& c) { lat4k = c.latency(); });
  sim.Run();
  dev.Submit(
      {.cookie = 2, .type = IoType::kRead, .offset = 0, .length = 128 * 1024},
      [&](const DeviceCompletion& c) { lat128k = c.latency(); });
  sim.Run();
  EXPECT_GT(lat128k, lat4k);            // bigger IO is slower...
  EXPECT_LT(lat128k, 32 * lat4k / 4);   // ...but far from 32x (parallel dies)
}

TEST(Ssd, BufferedWriteIsFast) {
  sim::Simulator sim;
  Ssd dev(sim, SmallConfig());
  dev.PreconditionClean();
  Tick lat = -1;
  dev.Submit({.cookie = 1, .type = IoType::kWrite, .offset = 0, .length = 4096},
             [&](const DeviceCompletion& c) { lat = c.latency(); });
  sim.Run();
  // DRAM-buffered: roughly dram_latency + copy + cmd cost.
  EXPECT_LT(lat, Microseconds(30));
}

TEST(Ssd, ReadOfBufferedPageServedFromDram) {
  sim::Simulator sim;
  Ssd dev(sim, SmallConfig());
  dev.PreconditionClean();
  // Issue a write, then immediately read the same page before drain.
  dev.Submit({.cookie = 1, .type = IoType::kWrite, .offset = 4096, .length = 4096},
             [](const DeviceCompletion&) {});
  Tick lat = -1;
  dev.Submit({.cookie = 2, .type = IoType::kRead, .offset = 4096, .length = 4096},
             [&](const DeviceCompletion& c) { lat = c.latency(); });
  sim.Run();
  EXPECT_GT(dev.counters().buffer_hit_pages, 0u);
  EXPECT_LT(lat, Microseconds(25));  // no NAND sense involved
}

TEST(Ssd, UnmappedReadReturnsQuickly) {
  sim::Simulator sim;
  Ssd dev(sim, SmallConfig());  // no preconditioning
  Tick lat = -1;
  dev.Submit({.cookie = 1, .type = IoType::kRead, .offset = 0, .length = 8192},
             [&](const DeviceCompletion& c) { lat = c.latency(); });
  sim.Run();
  EXPECT_EQ(dev.counters().unmapped_pages, 2u);
  EXPECT_LT(lat, Microseconds(20));
}

TEST(Ssd, RandomReadBandwidth4k) {
  sim::Simulator sim;
  Ssd dev(sim, SmallConfig());
  dev.PreconditionClean();
  ClosedLoop loop(sim, dev, IoType::kRead, 4096, /*sequential=*/false, 64,
                  dev.capacity_bytes());
  double mbps = RunBandwidthMBps(sim, loop, Seconds(0.5));
  // Calibration target: ~1.6 GB/s (controller-bound small reads).
  EXPECT_GT(mbps, 1300);
  EXPECT_LT(mbps, 2000);
}

TEST(Ssd, LargeReadBandwidthHigherThanSmall) {
  sim::Simulator sim;
  Ssd dev(sim, SmallConfig());
  dev.PreconditionClean();
  ClosedLoop big(sim, dev, IoType::kRead, 128 * 1024, /*sequential=*/true, 8,
                 dev.capacity_bytes());
  double big_mbps = RunBandwidthMBps(sim, big, Seconds(0.5));
  // Calibration target: ~3.2 GB/s (channel-bound large reads).
  EXPECT_GT(big_mbps, 2700);
  EXPECT_LT(big_mbps, 3600);
}

TEST(Ssd, CleanSequentialWriteBandwidth) {
  sim::Simulator sim;
  Ssd dev(sim, SmallConfig());
  dev.PreconditionClean();
  ClosedLoop loop(sim, dev, IoType::kWrite, 128 * 1024, /*sequential=*/true, 4,
                  dev.capacity_bytes());
  double mbps = RunBandwidthMBps(sim, loop, Seconds(0.5));
  // Calibration target: ~1.0 GB/s program-bound.
  EXPECT_GT(mbps, 700);
  EXPECT_LT(mbps, 1300);
}

TEST(Ssd, FragmentedRandomWriteCollapses) {
  sim::Simulator sim;
  Ssd dev(sim, SmallConfig());
  dev.PreconditionFragmented();
  ClosedLoop loop(sim, dev, IoType::kWrite, 4096, /*sequential=*/false, 32,
                  dev.capacity_bytes());
  // Let GC reach steady state before measuring.
  loop.Start();
  sim.RunUntil(Seconds(0.5));
  uint64_t bytes_before = loop.bytes_done;
  Tick t0 = sim.now();
  sim.RunUntil(t0 + Seconds(1));
  double mbps = BytesToMiB(loop.bytes_done - bytes_before) / ToSec(Seconds(1));
  // Calibration target: ~180 MB/s (write cost vs 1.6 GB/s reads ~ 9).
  EXPECT_GT(mbps, 110);
  EXPECT_LT(mbps, 330);
  EXPECT_GT(dev.ftl().stats().WriteAmplification(), 2.0);
}

TEST(Ssd, FragmentedWritesTriggerGc) {
  sim::Simulator sim;
  Ssd dev(sim, SmallConfig());
  dev.PreconditionFragmented();
  ClosedLoop loop(sim, dev, IoType::kWrite, 4096, false, 32,
                  dev.capacity_bytes());
  loop.Start();
  sim.RunUntil(Seconds(0.3));
  EXPECT_GT(dev.counters().gc_runs, 0u);
  EXPECT_GT(dev.ftl().stats().gc_pages_relocated, 0u);
}

TEST(Ssd, WritesInterfereWithReads) {
  // §2.3 issue 1: a read stream loses bandwidth when a write stream joins.
  auto read_alone = [] {
    sim::Simulator sim;
    Ssd dev(sim, SmallConfig());
    dev.PreconditionFragmented();
    ClosedLoop rd(sim, dev, IoType::kRead, 4096, false, 32,
                  dev.capacity_bytes());
    return RunBandwidthMBps(sim, rd, Seconds(0.5));
  }();
  auto read_mixed = [] {
    sim::Simulator sim;
    Ssd dev(sim, SmallConfig());
    dev.PreconditionFragmented();
    ClosedLoop rd(sim, dev, IoType::kRead, 4096, false, 32,
                  dev.capacity_bytes());
    ClosedLoop wr(sim, dev, IoType::kWrite, 4096, false, 32,
                  dev.capacity_bytes(), 7);
    wr.Start();
    return RunBandwidthMBps(sim, rd, Seconds(0.5));
  }();
  EXPECT_LT(read_mixed, 0.7 * read_alone);
}

TEST(Ssd, LatencyRisesWithLoad) {
  // The load -> latency impulse response of Fig 17.
  auto p99_at_qd = [](uint32_t qd) {
    sim::Simulator sim;
    Ssd dev(sim, SmallConfig());
    dev.PreconditionClean();
    ClosedLoop rd(sim, dev, IoType::kRead, 4096, false, qd,
                  dev.capacity_bytes());
    rd.Start();
    sim.RunUntil(Seconds(0.3));
    return rd.latency.p99();
  };
  Tick low = p99_at_qd(4);
  Tick high = p99_at_qd(256);
  EXPECT_GT(high, 3 * low);
}

TEST(Ssd, WriteBufferFillsUnderSustainedLoad) {
  sim::Simulator sim;
  SsdConfig cfg = SmallConfig();
  cfg.write_buffer_bytes = 4ull << 20;
  Ssd dev(sim, cfg);
  dev.PreconditionFragmented();
  ClosedLoop wr(sim, dev, IoType::kWrite, 128 * 1024, true, 32,
                dev.capacity_bytes());
  wr.Start();
  sim.RunUntil(Seconds(0.5));
  // Sustained overload: buffer near capacity and write latency far above
  // the buffered fast path.
  EXPECT_GT(dev.buffer_used(), cfg.write_buffer_bytes / 2);
  EXPECT_GT(wr.latency.p99(), Microseconds(200));
}

TEST(Ssd, CountersTrackTraffic) {
  sim::Simulator sim;
  Ssd dev(sim, SmallConfig());
  dev.PreconditionClean();
  dev.Submit({.cookie = 1, .type = IoType::kRead, .offset = 0, .length = 8192},
             [](const DeviceCompletion&) {});
  dev.Submit({.cookie = 2, .type = IoType::kWrite, .offset = 0, .length = 4096},
             [](const DeviceCompletion&) {});
  sim.Run();
  EXPECT_EQ(dev.counters().read_commands, 1u);
  EXPECT_EQ(dev.counters().read_bytes, 8192u);
  EXPECT_EQ(dev.counters().write_commands, 1u);
  EXPECT_EQ(dev.counters().write_bytes, 4096u);
}

TEST(Ssd, FragmentedLargeReadSlowerThanClean) {
  // Appendix A / Fig 15: physical scatter costs extra senses.
  auto lat128k = [](bool fragmented) {
    sim::Simulator sim;
    Ssd dev(sim, SmallConfig());
    if (fragmented) {
      dev.PreconditionFragmented();
    } else {
      dev.PreconditionClean();
    }
    Tick lat = 0;
    dev.Submit(
        {.cookie = 1, .type = IoType::kRead, .offset = 0, .length = 128 * 1024},
        [&](const DeviceCompletion& c) { lat = c.latency(); });
    sim.Run();
    return lat;
  };
  EXPECT_GT(lat128k(true), lat128k(false));
}

// Differential check of the FTL's reverse map: for every block, the
// survivors CollectValid hands to GC, and the block's valid count, must be
// exactly the LPNs a scan of the forward map places in it, in PPN order.
// Erases leave a block's stale p2l_ slots in place, so this catches any
// write path that stops rewriting them.
void ExpectReverseMapMatchesForward(const Ftl& ftl) {
  const SsdConfig& c = ftl.config();
  std::vector<std::vector<std::pair<Ppn, Lpn>>> mapped(c.physical_blocks());
  for (Lpn l = 0; l < c.logical_pages(); ++l) {
    const Ppn p = ftl.Translate(l);
    if (p != kInvalidPage) mapped[ftl.BlockOf(p)].push_back({p, l});
  }
  for (uint32_t b = 0; b < c.physical_blocks(); ++b) {
    std::sort(mapped[b].begin(), mapped[b].end());
    std::vector<Lpn> expected;
    for (const auto& [ppn, lpn] : mapped[b]) expected.push_back(lpn);
    ASSERT_EQ(ftl.CollectValid(b), expected) << "block " << b;
    ASSERT_EQ(ftl.ValidPages(b), expected.size()) << "block " << b;
  }
}

TEST(Ssd, CollectValidMatchesTheMappingAfterGc) {
  sim::Simulator sim;
  Ssd dev(sim, SmallConfig());
  dev.PreconditionFragmented();
  ExpectReverseMapMatchesForward(dev.ftl());
  ClosedLoop loop(sim, dev, IoType::kWrite, 4096, false, 32,
                  dev.capacity_bytes());
  loop.Start();
  sim.RunUntil(Seconds(0.3));
  ASSERT_GT(dev.ftl().stats().blocks_erased, 0u);
  ExpectReverseMapMatchesForward(dev.ftl());
}

// The fragmented state a key's first PreconditionFragmented builds, and
// every later one restores, must be the state a fresh FTL reaches by
// PreconditionRandom. The seeds are used by no other test, so the first
// call of each key is a cold build even with every suite in one process.
SsdConfig MemoConfig() {
  SsdConfig c;
  c.channels = 2;
  c.dies_per_channel = 2;
  c.pages_per_block = 64;
  c.logical_bytes = 16ull << 20;
  return c;
}

uint64_t ColdHash(const SsdConfig& c, double overwrite_factor,
                  uint64_t seed) {
  Ftl ftl(c);
  ftl.PreconditionRandom(overwrite_factor, seed);
  return StateHash(ftl);
}

uint64_t DeviceHash(const SsdConfig& c, double overwrite_factor,
                    uint64_t seed) {
  sim::Simulator sim;
  Ssd dev(sim, c);
  dev.PreconditionFragmented(overwrite_factor, seed);
  return StateHash(dev.ftl());
}

TEST(Ssd, PreconditionFragmentedRestoresOnlyItsOwnKey) {
  const SsdConfig base = MemoConfig();
  const uint64_t kSeed = 0x5eed0001;
  const uint64_t cold = ColdHash(base, 2.0, kSeed);
  EXPECT_EQ(DeviceHash(base, 2.0, kSeed), cold);  // builds the image
  EXPECT_EQ(DeviceHash(base, 2.0, kSeed), cold);  // restores it
  // Keys that differ in one part each; the base key's image is warm.
  std::vector<std::pair<const char*, SsdConfig>> configs;
  auto vary = [&](const char* what, auto change) {
    SsdConfig c = base;
    change(c);
    configs.push_back({what, c});
  };
  vary("over_provisioning", [](SsdConfig& c) { c.over_provisioning = 0.2; });
  vary("program_unit_pages", [](SsdConfig& c) { c.program_unit_pages = 8; });
  vary("gc_high_watermark", [](SsdConfig& c) { c.gc_high_watermark = 5; });
  vary("gc_low_watermark", [](SsdConfig& c) { c.gc_low_watermark = 2; });
  for (const auto& [what, c] : configs) {
    SCOPED_TRACE(what);
    const uint64_t own = ColdHash(c, 2.0, kSeed);
    EXPECT_NE(own, cold);
    EXPECT_EQ(DeviceHash(c, 2.0, kSeed), own);
    EXPECT_EQ(DeviceHash(c, 2.0, kSeed), own);
  }
  const uint64_t other_seed = ColdHash(base, 2.0, kSeed + 1);
  EXPECT_NE(other_seed, cold);
  EXPECT_EQ(DeviceHash(base, 2.0, kSeed + 1), other_seed);
  const uint64_t other_factor = ColdHash(base, 1.5, kSeed);
  EXPECT_NE(other_factor, cold);
  EXPECT_EQ(DeviceHash(base, 1.5, kSeed), other_factor);
  EXPECT_EQ(DeviceHash(base, 2.0, kSeed), cold);
}

// Two threads per key race on its cold build and then restore it; every
// device must reach the cold state whichever thread's image was kept.
TEST(Ssd, ConcurrentPreconditioningMatchesTheColdBuild) {
  const SsdConfig c = MemoConfig();
  const uint64_t kSeeds[] = {0x5eed0101, 0x5eed0102};
  const uint64_t cold[] = {ColdHash(c, 2.0, kSeeds[0]),
                           ColdHash(c, 2.0, kSeeds[1])};
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  uint64_t hashes[kThreads][kRounds] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        hashes[t][r] = DeviceHash(c, 2.0, kSeeds[t % 2]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      EXPECT_EQ(hashes[t][r], cold[t % 2]) << "thread " << t << " round " << r;
    }
  }
}

TEST(NullDevice, CompletesInstantly) {
  sim::Simulator sim;
  NullDevice dev(sim);
  Tick lat = -1;
  dev.Submit({.cookie = 9, .type = IoType::kRead, .offset = 0, .length = 4096},
             [&](const DeviceCompletion& c) { lat = c.latency(); });
  EXPECT_EQ(dev.inflight(), 1u);
  sim.Run();
  EXPECT_EQ(lat, Microseconds(2));
  EXPECT_EQ(dev.inflight(), 0u);
}

struct IoShape {
  uint32_t bytes;
  bool sequential;
  IoType type;
};

class SsdShapeSweep : public ::testing::TestWithParam<IoShape> {};

TEST_P(SsdShapeSweep, CompletesAllRequests) {
  // Property: any IO shape completes, conserves bytes, and reports
  // monotone timestamps.
  auto [bytes, sequential, type] = GetParam();
  sim::Simulator sim;
  Ssd dev(sim, SmallConfig());
  dev.PreconditionClean();
  ClosedLoop loop(sim, dev, type, bytes, sequential, 16, dev.capacity_bytes());
  loop.Start();
  sim.RunUntil(Seconds(0.1));
  EXPECT_GT(loop.ios_done, 0u);
  EXPECT_EQ(loop.bytes_done, loop.ios_done * bytes);
  EXPECT_GT(loop.latency.min(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SsdShapeSweep,
    ::testing::Values(IoShape{4096, false, IoType::kRead},
                      IoShape{4096, true, IoType::kRead},
                      IoShape{16384, false, IoType::kRead},
                      IoShape{131072, true, IoType::kRead},
                      IoShape{262144, true, IoType::kRead},
                      IoShape{4096, false, IoType::kWrite},
                      IoShape{4096, true, IoType::kWrite},
                      IoShape{65536, true, IoType::kWrite},
                      IoShape{131072, true, IoType::kWrite}));

}  // namespace
}  // namespace gimbal::ssd
