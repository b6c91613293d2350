// End-to-end integration tests: full stack (workers -> initiators ->
// network -> target -> policy -> SSD model) via the Testbed harness,
// checking the qualitative behaviours the paper's evaluation hinges on.
#include <gtest/gtest.h>

#include "core/gimbal_switch.h"
#include "workload/runner.h"

namespace gimbal::workload {
namespace {

TestbedConfig BaseConfig(Scheme scheme,
                         SsdCondition cond = SsdCondition::kClean) {
  TestbedConfig cfg;
  cfg.scheme = scheme;
  cfg.condition = cond;
  cfg.ssd.logical_bytes = 256ull << 20;  // keep preconditioning cheap
  return cfg;
}

double WorkerMBps(const FioWorker& w, Tick window) {
  return BytesToMiB(w.spec().io_bytes > 0
                        ? const_cast<FioWorker&>(w).stats().total_bytes()
                        : 0) /
         ToSec(window);
}

TEST(EndToEnd, GimbalSingleTenantReachesDeviceBandwidth) {
  TestbedConfig cfg = BaseConfig(Scheme::kGimbal);
  Testbed bed(cfg);
  FioSpec spec;
  spec.io_bytes = 128 * 1024;
  spec.sequential = true;
  spec.queue_depth = 16;
  FioWorker& w = bed.AddWorker(spec);
  bed.Run(Milliseconds(300), Milliseconds(500));
  double mbps = WorkerMBps(w, bed.measured());
  // Congestion control should keep the device near its ~3.2 GB/s limit.
  EXPECT_GT(mbps, 2200);
}

TEST(EndToEnd, EverySchemeCompletesMixedTraffic) {
  for (Scheme s : {Scheme::kVanilla, Scheme::kReflex, Scheme::kParda,
                   Scheme::kFlashFq, Scheme::kGimbal}) {
    TestbedConfig cfg = BaseConfig(s);
    Testbed bed(cfg);
    FioSpec spec;
    spec.read_ratio = 0.7;
    spec.io_bytes = 4096;
    spec.queue_depth = 16;
    spec.seed = 3;
    FioWorker& w = bed.AddWorker(spec);
    bed.Run(Milliseconds(100), Milliseconds(200));
    EXPECT_GT(w.stats().read_ios, 0u) << ToString(s);
    EXPECT_GT(w.stats().write_ios, 0u) << ToString(s);
    EXPECT_GT(w.stats().read_latency.mean(), 0.0) << ToString(s);
  }
}

TEST(EndToEnd, GimbalCreditsFlowToClients) {
  TestbedConfig cfg = BaseConfig(Scheme::kGimbal);
  Testbed bed(cfg);
  FioSpec spec;
  spec.io_bytes = 4096;
  spec.queue_depth = 64;
  FioWorker& w = bed.AddWorker(spec);
  bed.Run(Milliseconds(100), Milliseconds(100));
  // After slots complete, credits reflect allotted x slot IO count (8x32).
  core::GimbalSwitch* sw = bed.gimbal_switch(0);
  ASSERT_NE(sw, nullptr);
  EXPECT_GE(sw->scheduler().CreditFor(1), 32u);
  EXPECT_GT(w.stats().total_ios(), 1000u);
}

TEST(EndToEnd, GimbalFairnessAcrossIoSizes) {
  // A 4KB-read tenant and a 128KB-read tenant share one clean SSD; Gimbal's
  // virtual slots should keep both near their fair f-Util (Fig 7a/d).
  TestbedConfig cfg = BaseConfig(Scheme::kGimbal);
  Testbed bed(cfg);
  FioSpec small;
  small.io_bytes = 4096;
  small.queue_depth = 32;
  small.seed = 11;
  FioSpec big;
  big.io_bytes = 128 * 1024;
  big.queue_depth = 4;
  big.seed = 12;
  FioWorker& ws = bed.AddWorker(small);
  FioWorker& wb = bed.AddWorker(big);
  bed.Run(Milliseconds(300), Milliseconds(700));
  double small_mb = BytesToMiB(ws.stats().total_bytes()) / ToSec(bed.measured());
  double big_mb = BytesToMiB(wb.stats().total_bytes()) / ToSec(bed.measured());
  // The large-IO tenant may earn somewhat more (its standalone max is ~2x),
  // but must not starve the small tenant the way FCFS would.
  EXPECT_GT(small_mb, 300);
  EXPECT_GT(big_mb, 300);
}

TEST(EndToEnd, GimbalWriterDoesNotStarveReader) {
  // Fragmented SSD, a 4K random reader against a 4K random writer
  // (Fig 7c/f: vanilla/ReFlex let the writer crush the reader).
  TestbedConfig cfg = BaseConfig(Scheme::kGimbal, SsdCondition::kFragmented);
  Testbed bed(cfg);
  FioSpec rd;
  rd.io_bytes = 4096;
  rd.queue_depth = 32;
  rd.seed = 21;
  FioSpec wr;
  wr.read_ratio = 0.0;
  wr.io_bytes = 4096;
  wr.queue_depth = 32;
  wr.seed = 22;
  FioWorker& wrd = bed.AddWorker(rd);
  FioWorker& wwr = bed.AddWorker(wr);
  bed.Run(Milliseconds(500), Seconds(1));
  double rd_mb = BytesToMiB(wrd.stats().total_bytes()) / ToSec(bed.measured());
  double wr_mb = BytesToMiB(wwr.stats().total_bytes()) / ToSec(bed.measured());
  // On a fragmented device GC throttles everything. With a single writer
  // whose stream fits the SSD's write buffer, Gimbal's write cost settles
  // near 1 (the §3.4/Fig 9 "accelerate buffered writes" behaviour), so
  // bytes split roughly evenly; what must not happen is the reader being
  // crushed the way an FCFS target lets it be (Fig 4's 59% collapse).
  EXPECT_GT(rd_mb, 40);
  EXPECT_GT(wr_mb, 5);
  EXPECT_GT(rd_mb, 0.5 * wr_mb);
}

TEST(EndToEnd, GimbalKeepsTailLatencyBelowFlashFq) {
  // Fig 8: FlashFQ has no flow control, so its p99 grows with
  // consolidation; Gimbal's credits keep queues at the client.
  auto p99_for = [](Scheme s) {
    TestbedConfig cfg = BaseConfig(s);
    Testbed bed(cfg);
    for (int i = 0; i < 8; ++i) {
      FioSpec spec;
      spec.io_bytes = 4096;
      spec.queue_depth = 64;
      spec.seed = 30 + static_cast<uint64_t>(i);
      bed.AddWorker(spec);
    }
    bed.Run(Milliseconds(300), Milliseconds(500));
    LatencyHistogram all;
    for (auto& w : bed.workers()) all.Merge(w->stats().read_latency);
    return all.p99();
  };
  // Device-side queueing under FlashFQ should exceed Gimbal's paced p99.
  EXPECT_LT(p99_for(Scheme::kGimbal), p99_for(Scheme::kFlashFq));
}

TEST(EndToEnd, GimbalUtilizationBeatsReflexOnCleanWrites) {
  // Fig 6 C-W: ReFlex's static worst-case write cost over-throttles clean
  // sequential writes; Gimbal's dynamic write cost converges down to ~1.
  auto write_mbps = [](Scheme s) {
    TestbedConfig cfg = BaseConfig(s);
    Testbed bed(cfg);
    for (int i = 0; i < 4; ++i) {
      FioSpec spec;
      spec.read_ratio = 0.0;
      spec.io_bytes = 128 * 1024;
      spec.sequential = true;
      spec.queue_depth = 4;
      spec.seed = 40 + static_cast<uint64_t>(i);
      bed.AddWorker(spec);
    }
    bed.Run(Milliseconds(300), Milliseconds(500));
    uint64_t bytes = 0;
    for (auto& w : bed.workers()) bytes += w->stats().total_bytes();
    return BytesToMiB(bytes) / ToSec(bed.measured());
  };
  double gimbal = write_mbps(Scheme::kGimbal);
  double reflex = write_mbps(Scheme::kReflex);
  EXPECT_GT(gimbal, 1.5 * reflex);
}

TEST(EndToEnd, WriteCostAdaptsDownWhenBufferAbsorbs) {
  // §3.4 / Fig 9: a single rate-capped writer is absorbed by the SSD's
  // write buffer; Gimbal's write cost should decay toward 1.
  TestbedConfig cfg = BaseConfig(Scheme::kGimbal);
  Testbed bed(cfg);
  FioSpec wr;
  wr.read_ratio = 0.0;
  wr.io_bytes = 4096;
  wr.queue_depth = 4;
  wr.rate_cap_bps = 60.0 * 1024 * 1024;  // Fig 9's 60 MB/s writer
  bed.AddWorker(wr);
  bed.Run(Milliseconds(200), Milliseconds(400));
  core::GimbalSwitch* sw = bed.gimbal_switch(0);
  ASSERT_NE(sw, nullptr);
  EXPECT_LT(sw->write_cost().cost(), 2.0);
}

TEST(EndToEnd, RateCapHonoured) {
  TestbedConfig cfg = BaseConfig(Scheme::kVanilla);
  Testbed bed(cfg);
  FioSpec spec;
  spec.io_bytes = 4096;
  spec.queue_depth = 8;
  spec.rate_cap_bps = 50.0 * 1024 * 1024;
  FioWorker& w = bed.AddWorker(spec);
  bed.Run(Milliseconds(200), Milliseconds(500));
  double mbps = BytesToMiB(w.stats().total_bytes()) / ToSec(bed.measured());
  EXPECT_NEAR(mbps, 50.0, 5.0);
}

TEST(EndToEnd, StandaloneBandwidthHelper) {
  TestbedConfig cfg = BaseConfig(Scheme::kGimbal);
  FioSpec spec;
  spec.io_bytes = 128 * 1024;
  spec.sequential = true;
  spec.queue_depth = 16;
  double bps = StandaloneBandwidth(cfg, spec);
  EXPECT_GT(bps, 2.0e9);
  // f-Util of a worker achieving exactly its share is 1.
  EXPECT_NEAR(FUtil(bps / 4, bps, 4), 1.0, 1e-9);
}

TEST(EndToEnd, NullDeviceModeWorks) {
  TestbedConfig cfg = BaseConfig(Scheme::kGimbal);
  cfg.use_null_device = true;
  Testbed bed(cfg);
  FioSpec spec;
  spec.io_bytes = 4096;
  spec.queue_depth = 32;
  FioWorker& w = bed.AddWorker(spec);
  bed.Run(Milliseconds(50), Milliseconds(100));
  EXPECT_GT(w.stats().read_ios, 1000u);
}

}  // namespace
}  // namespace gimbal::workload
