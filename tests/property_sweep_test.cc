// Parameterized property sweeps: invariants that must hold across the
// device-geometry and Gimbal-parameter space, not just at the defaults.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "check/invariants.h"
#include "common/rng.h"
#include "core/gimbal_switch.h"
#include "obs/schema.h"
#include "ssd/ssd.h"
#include "workload/runner.h"

namespace gimbal {
namespace {

// --------------------------------------------------------------------------
// SSD geometry sweep: conservation and sanity across configurations.
// --------------------------------------------------------------------------

struct Geometry {
  int channels;
  int dies_per_channel;
  uint32_t pages_per_block;
  uint64_t logical_mb;
};

class GeometrySweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(GeometrySweep, MixedTrafficInvariants) {
  auto [channels, dpc, ppb, logical_mb] = GetParam();
  sim::Simulator sim;
  ssd::SsdConfig cfg;
  cfg.channels = channels;
  cfg.dies_per_channel = dpc;
  cfg.pages_per_block = ppb;
  cfg.logical_bytes = logical_mb << 20;
  ssd::Ssd dev(sim, cfg);
  dev.PreconditionFragmented(2.0);

  // Drive a mixed closed loop.
  Rng rng(99);
  uint64_t reads_done = 0, writes_done = 0, bytes_done = 0;
  Tick max_latency = 0;
  std::function<void()> issue = [&]() {
    ssd::DeviceIo io;
    bool write = rng.NextBool(0.3);
    io.type = write ? IoType::kWrite : IoType::kRead;
    io.length = 4096u << rng.NextBounded(3);  // 4/8/16 KiB
    uint64_t slots = cfg.logical_bytes / io.length;
    io.offset = rng.NextBounded(slots) * io.length;
    dev.Submit(io, [&](const ssd::DeviceCompletion& cpl) {
      (cpl.type == IoType::kRead ? reads_done : writes_done)++;
      bytes_done += cpl.length;
      max_latency = std::max(max_latency, cpl.latency());
      issue();
    });
  };
  for (int i = 0; i < 16; ++i) issue();
  sim.RunUntil(Milliseconds(200));

  // Invariants: progress on both classes, WA sane, latencies positive and
  // bounded, free-block floor respected on every die.
  EXPECT_GT(reads_done, 50u);
  EXPECT_GT(writes_done, 20u);
  EXPECT_GE(dev.ftl().stats().WriteAmplification(), 1.0);
  EXPECT_LT(dev.ftl().stats().WriteAmplification(), 20.0);
  EXPECT_GT(max_latency, 0);
  EXPECT_LT(max_latency, Seconds(1));
  for (int d = 0; d < cfg.dies(); ++d) {
    EXPECT_GE(dev.ftl().FreeBlocks(d), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(Geometry{2, 2, 64, 64},     // tiny, coarse blocks
                      Geometry{4, 4, 128, 128},   // mid
                      Geometry{8, 4, 128, 256},   // default-like
                      Geometry{8, 8, 64, 256},    // many dies, small blocks
                      Geometry{1, 4, 128, 64}));  // single channel

// --------------------------------------------------------------------------
// Gimbal parameter sweep: the switch must stay live and fair-ish for any
// sane parameterization, not just §4.2's defaults.
// --------------------------------------------------------------------------

struct Params {
  Tick thresh_min;
  Tick thresh_max;
  double beta;
  uint32_t slots_threshold;
};

class GimbalParamSweep : public ::testing::TestWithParam<Params> {};

TEST_P(GimbalParamSweep, TwoTenantsStayLiveAndBalanced) {
  auto [tmin, tmax, beta, slots] = GetParam();
  workload::TestbedConfig cfg;
  cfg.scheme = workload::Scheme::kGimbal;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.gimbal.thresh_min = tmin;
  cfg.gimbal.thresh_max = tmax;
  cfg.gimbal.beta = beta;
  cfg.gimbal.slots_threshold = slots;
  workload::Testbed bed(cfg);
  for (int i = 0; i < 2; ++i) {
    workload::FioSpec spec;
    spec.io_bytes = 4096;
    spec.queue_depth = 32;
    spec.seed = static_cast<uint64_t>(i) + 1;
    bed.AddWorker(spec);
  }
  bed.Run(Milliseconds(200), Milliseconds(400));
  uint64_t a = bed.workers()[0]->stats().total_bytes();
  uint64_t b = bed.workers()[1]->stats().total_bytes();
  ASSERT_GT(a, 0u);
  ASSERT_GT(b, 0u);
  double ratio = static_cast<double>(std::max(a, b)) /
                 static_cast<double>(std::min(a, b));
  EXPECT_LT(ratio, 1.5) << "equal tenants diverged under params";
  // Liveness: once the workers stop, everything queued at the switch must
  // drain (no stranded requests under any parameterization).
  for (auto& w : bed.workers()) w->Stop();
  bed.sim().RunUntil(bed.sim().now() + Seconds(2));
  core::GimbalSwitch* sw = bed.gimbal_switch(0);
  ASSERT_NE(sw, nullptr);
  EXPECT_EQ(sw->scheduler().queued_total(), 0u)
      << "requests stranded after drain window";
  // Nothing left at the device (the testbed's checker is fail-fast).
  EXPECT_TRUE(bed.checker().CheckDrained());
}

INSTANTIATE_TEST_SUITE_P(
    ParamSpace, GimbalParamSweep,
    ::testing::Values(
        Params{Microseconds(250), Microseconds(1500), 8, 8},   // paper
        Params{Microseconds(100), Microseconds(800), 8, 8},    // tight
        Params{Microseconds(500), Milliseconds(3), 8, 8},      // loose (P3600)
        Params{Microseconds(250), Microseconds(1500), 1, 8},   // slow probe
        Params{Microseconds(250), Microseconds(1500), 16, 8},  // fast probe
        Params{Microseconds(250), Microseconds(1500), 8, 2},   // few slots
        Params{Microseconds(250), Microseconds(1500), 8, 64}));  // many slots

// --------------------------------------------------------------------------
// Cross-scheme liveness: every policy must complete a hostile little mix
// without stranding IOs.
// --------------------------------------------------------------------------

class SchemeLiveness
    : public ::testing::TestWithParam<workload::Scheme> {};

TEST_P(SchemeLiveness, HostileMixDrains) {
  workload::TestbedConfig cfg;
  cfg.scheme = GetParam();
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.condition = workload::SsdCondition::kFragmented;
  workload::Testbed bed(cfg);
  // Odd sizes, mixed types, bursty QD.
  uint32_t sizes[] = {4096, 12288, 65536, 131072};
  for (int i = 0; i < 4; ++i) {
    workload::FioSpec spec;
    spec.io_bytes = sizes[i];
    spec.read_ratio = i % 2 == 0 ? 0.9 : 0.2;
    spec.queue_depth = 1 + static_cast<uint32_t>(i) * 7;
    spec.seed = static_cast<uint64_t>(i) + 1;
    bed.AddWorker(spec);
  }
  for (auto& w : bed.workers()) w->Start();
  bed.sim().RunUntil(Milliseconds(150));
  for (auto& w : bed.workers()) w->Stop();
  bed.sim().RunUntil(Seconds(3));
  EXPECT_TRUE(bed.sim().idle()) << "stranded events / undrained IOs";
  for (auto& w : bed.workers()) {
    EXPECT_GT(w->stats().total_ios(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeLiveness,
    ::testing::Values(workload::Scheme::kVanilla, workload::Scheme::kReflex,
                      workload::Scheme::kParda, workload::Scheme::kFlashFq,
                      workload::Scheme::kGimbal,
                      workload::Scheme::kTimeslice));

// --------------------------------------------------------------------------
// Policy matrix: every scheme x workload mix x seed runs under the online
// invariant checker (src/check/invariants.h) and must finish with zero
// violations and a closed end-of-run balance. This replaces scattered
// hand-rolled conservation asserts: the checker verifies IO conservation,
// credit law, DRR bounds, token buckets, slot occupancy and latency sanity
// at every event, not just at the end.
// --------------------------------------------------------------------------

std::string ViolationReport(const check::InvariantChecker& chk) {
  std::string out;
  size_t shown = std::min<size_t>(chk.violations().size(), 3);
  for (size_t i = 0; i < shown; ++i) {
    const auto& v = chk.violations()[i];
    out += "\n  [" + std::to_string(v.when) + "] " + v.invariant +
           " tenant=" + std::to_string(v.tenant) +
           " ssd=" + std::to_string(v.ssd) + ": " + v.detail;
  }
  if (chk.violations().size() > shown) {
    out += "\n  ... and " +
           std::to_string(chk.violations().size() - shown) + " more";
  }
  return out;
}

enum class WorkMix { kSmallReads, kWritePressure, kRaggedMix };

class PolicyMatrix
    : public ::testing::TestWithParam<
          std::tuple<workload::Scheme, WorkMix, uint64_t>> {};

TEST_P(PolicyMatrix, CheckerCleanAndDrained) {
  auto [scheme, mix, seed] = GetParam();
  check::InvariantChecker chk(/*fail_fast=*/false);
  workload::TestbedConfig cfg;
  cfg.scheme = scheme;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.condition = workload::SsdCondition::kFragmented;
  cfg.check = &chk;
  workload::Testbed bed(cfg);
  switch (mix) {
    case WorkMix::kSmallReads:
      // Three symmetric 4KiB readers: pure DRR / credit exercise.
      for (int i = 0; i < 3; ++i) {
        workload::FioSpec spec;
        spec.io_bytes = 4096;
        spec.queue_depth = 16;
        spec.seed = seed * 17 + static_cast<uint64_t>(i);
        bed.AddWorker(spec);
      }
      break;
    case WorkMix::kWritePressure:
      // Two big writers against one reader: write-cost estimation and the
      // token bucket's write path.
      for (int i = 0; i < 2; ++i) {
        workload::FioSpec spec;
        spec.io_bytes = 128 * 1024;
        spec.read_ratio = 0.0;
        spec.queue_depth = 8;
        spec.seed = seed * 17 + static_cast<uint64_t>(i);
        bed.AddWorker(spec);
      }
      {
        workload::FioSpec rd;
        rd.io_bytes = 4096;
        rd.queue_depth = 16;
        rd.seed = seed * 17 + 2;
        bed.AddWorker(rd);
      }
      break;
    case WorkMix::kRaggedMix: {
      // Odd sizes, asymmetric ratios, one rate-capped tenant: MDTS splits,
      // per-tenant rate limiting and mixed read/write accounting.
      uint32_t sizes[] = {4096, 12288, 65536};
      for (int i = 0; i < 3; ++i) {
        workload::FioSpec spec;
        spec.io_bytes = sizes[i];
        spec.read_ratio = i % 2 == 0 ? 0.9 : 0.2;
        spec.queue_depth = 2 + static_cast<uint32_t>(i) * 5;
        if (i == 1) spec.rate_cap_bps = 50.0 * 1024 * 1024;
        spec.seed = seed * 17 + static_cast<uint64_t>(i);
        bed.AddWorker(spec);
      }
      break;
    }
  }
  for (auto& w : bed.workers()) w->Start();
  bed.sim().RunUntil(Milliseconds(100));
  for (auto& w : bed.workers()) w->Stop();
  for (auto& ini : bed.initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  bed.sim().Run();
  ASSERT_TRUE(bed.sim().idle()) << "stranded events / undrained IOs";
  for (auto& w : bed.workers()) {
    EXPECT_GT(w->stats().total_ios(), 0u) << "a tenant never ran";
  }
  EXPECT_GT(chk.checks_run(), 0u) << "checker not attached";
  EXPECT_TRUE(chk.CheckDrained()) << ViolationReport(chk);
  EXPECT_TRUE(chk.ok()) << ViolationReport(chk);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesMixesSeeds, PolicyMatrix,
    ::testing::Combine(
        ::testing::Values(workload::Scheme::kVanilla,
                          workload::Scheme::kReflex, workload::Scheme::kParda,
                          workload::Scheme::kFlashFq,
                          workload::Scheme::kGimbal),
        ::testing::Values(WorkMix::kSmallReads, WorkMix::kWritePressure,
                          WorkMix::kRaggedMix),
        ::testing::Values(1u, 7u, 42u)));

// --------------------------------------------------------------------------
// Fault sweep: no IO is ever lost. Under every fault plan and seed, each
// request the initiator admitted reaches exactly one terminal status
// (completed or failed) once the testbed drains — nothing stuck behind a
// dead device, lost to a dropped capsule, or leaked by a crashed tenant.
// --------------------------------------------------------------------------

enum class FaultMix { kMedia, kStall, kFailure, kLinkFlap, kEverything };

class FaultSweep
    : public ::testing::TestWithParam<std::tuple<FaultMix, uint64_t>> {};

TEST_P(FaultSweep, NoIoLost) {
  auto [mix, seed] = GetParam();
  obs::Observability obs;
  check::InvariantChecker chk(/*fail_fast=*/false);
  workload::TestbedConfig cfg;
  cfg.scheme = workload::Scheme::kGimbal;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.check = &chk;
  cfg.fault_seed = seed;
  cfg.retry.io_timeout = Milliseconds(2);
  cfg.retry.keepalive_interval = Milliseconds(1);
  cfg.target.session_timeout = Milliseconds(5);
  cfg.obs = &obs;
  cfg.run_label = "fault_sweep";
  const bool media = mix == FaultMix::kMedia || mix == FaultMix::kEverything;
  const bool stall = mix == FaultMix::kStall || mix == FaultMix::kEverything;
  const bool failure =
      mix == FaultMix::kFailure || mix == FaultMix::kEverything;
  const bool flap =
      mix == FaultMix::kLinkFlap || mix == FaultMix::kEverything;
  if (media) {
    cfg.faults.media_errors.push_back(
        {0, Milliseconds(10), Milliseconds(30), 0.1, Microseconds(200)});
  }
  if (stall) {
    cfg.faults.stalls.push_back(
        {0, Milliseconds(15), Milliseconds(35), Microseconds(800)});
  }
  if (failure) {
    cfg.faults.failures.push_back({0, Milliseconds(40), Milliseconds(48)});
  }
  if (flap) {
    cfg.faults.link_flaps.push_back(
        {Milliseconds(20), Milliseconds(28), 0.1, Microseconds(10)});
  }
  workload::Testbed bed(cfg);
  for (int i = 0; i < 3; ++i) {
    workload::FioSpec spec;
    spec.io_bytes = 4096u << (i % 2);
    spec.read_ratio = i == 2 ? 0.5 : 1.0;
    spec.queue_depth = 8;
    spec.seed = seed * 31 + static_cast<uint64_t>(i);
    bed.AddWorker(spec);
  }
  // The crash path rides along in the everything mix.
  if (mix == FaultMix::kEverything) {
    fabric::Initiator& crasher = bed.workers()[2]->initiator();
    bed.faults().ScheduleTenantCrash(Milliseconds(25), crasher.tenant(),
                                     [&crasher]() { crasher.Crash(); });
  }
  for (auto& w : bed.workers()) w->Start();
  bed.sim().RunUntil(Milliseconds(70));
  for (auto& w : bed.workers()) w->Stop();
  for (auto& ini : bed.initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  bed.sim().Run();
  EXPECT_TRUE(bed.sim().idle());

  // The checker's ledgers subsume the old hand-rolled metric diffs: per
  // (tenant, ssd), admitted == terminal with nothing in flight, and every
  // online invariant (credits, DRR, buckets, health transitions) held
  // throughout the fault windows.
  EXPECT_GT(chk.checks_run(), 0u) << "checker not attached";
  EXPECT_TRUE(chk.CheckDrained()) << ViolationReport(chk);
  EXPECT_TRUE(chk.ok()) << ViolationReport(chk);
  for (auto& ini : bed.initiators()) {
    const obs::Labels l = obs::Labels::TenantSsd(
        static_cast<int32_t>(ini->tenant()), ini->pipeline());
    const uint64_t submitted =
        obs.metrics.GetCounter(obs::schema::kInitiatorSubmitted, l).value();
    EXPECT_GT(submitted, 0u) << "tenant " << ini->tenant() << " never ran";
  }
  // Nothing left queued at the switch either.
  core::GimbalSwitch* sw = bed.gimbal_switch(0);
  ASSERT_NE(sw, nullptr);
  EXPECT_EQ(sw->scheduler().queued_total(), 0u);
  EXPECT_EQ(sw->scheduler().tenant_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PlansAndSeeds, FaultSweep,
    ::testing::Combine(::testing::Values(FaultMix::kMedia, FaultMix::kStall,
                                         FaultMix::kFailure,
                                         FaultMix::kLinkFlap,
                                         FaultMix::kEverything),
                       ::testing::Values(1u, 7u, 42u)));

}  // namespace
}  // namespace gimbal
