// Determinism golden tests (docs/SIMULATOR.md).
//
// Runs whole testbeds — a Fig-4-style interference scenario and a faulted
// scenario exercising stalls, media errors, link flaps, a device failure
// and a tenant crash, each on one SSD and on a multi-SSD bed — with the
// event tracer on, and hashes the full event trace (timestamp, event name,
// tenant, ssd, args) into one digest. For each seed the digest must be
// identical run-to-run (the simulation is deterministic): any ordering bug
// in the event queue or any stray RNG draw changes it.
//
// MultiSsdSchedule then pins the digest and executed-event count of a
// sparse and a dense three-SSD bed, so any change to the multi-SSD event
// order shows up as a moved constant, and checks that every tenant of
// those beds completes I/O and the clock ends at the deadline.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "obs/obs.h"
#include "sim/event.h"
#include "workload/runner.h"

namespace gimbal {
namespace {

using workload::FioSpec;
using workload::Scheme;
using workload::SsdCondition;
using workload::Testbed;
using workload::TestbedConfig;

// Large enough that neither scenario ever drops events; a drop would only
// weaken the digest, but dropped() is hashed too, so check it anyway.
constexpr size_t kTraceLimit = 4u << 20;

uint64_t InterferenceDigest(uint64_t seed) {
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.obs = &obs;
  cfg.run_label = "determinism";
  Testbed bed(cfg);
  // Fig 4's shape, shrunk: a 4KB random-read victim sharing the SSD with a
  // 128KB write neighbour — exercises the DRR, pacing pokes, write staging
  // and the credit feedback loop.
  FioSpec victim;
  victim.io_bytes = 4096;
  victim.queue_depth = 32;
  victim.seed = seed;
  bed.AddWorker(victim);
  FioSpec neighbor;
  neighbor.io_bytes = 131072;
  neighbor.queue_depth = 8;
  neighbor.read_ratio = 0.0;
  neighbor.seed = seed + 1000;
  bed.AddWorker(neighbor);
  bed.Run(Milliseconds(10), Milliseconds(30));
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  return obs.tracer.Digest();
}

uint64_t FaultedDigest(uint64_t seed) {
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.obs = &obs;
  cfg.run_label = "determinism_faults";
  cfg.fault_seed = seed;
  cfg.retry.io_timeout = Milliseconds(2);
  cfg.retry.keepalive_interval = Milliseconds(1);
  cfg.target.session_timeout = Milliseconds(5);
  cfg.faults.stalls.push_back(
      {0, Milliseconds(10), Milliseconds(18), Microseconds(500)});
  cfg.faults.media_errors.push_back(
      {0, Milliseconds(20), Milliseconds(28), 0.1, Microseconds(200)});
  cfg.faults.link_flaps.push_back(
      {Milliseconds(24), Milliseconds(27), 0.05, Microseconds(10)});
  cfg.faults.failures.push_back({0, Milliseconds(30), Milliseconds(34)});
  Testbed bed(cfg);
  for (int i = 0; i < 2; ++i) {
    FioSpec spec;
    spec.io_bytes = 4096;
    spec.queue_depth = 8;
    spec.seed = seed + 100 * static_cast<uint64_t>(i + 1);
    bed.AddWorker(spec, 0);
  }
  // One tenant crashes mid-run: exercises timeout timers, the keepalive
  // and the target's session reaper on top of the fault windows.
  fabric::Initiator& crasher = bed.workers()[0]->initiator();
  bed.faults().ScheduleTenantCrash(Milliseconds(22), crasher.tenant(),
                                   [&crasher]() { crasher.Crash(); });
  for (auto& w : bed.workers()) w->Start();
  bed.sim().RunUntil(Milliseconds(45));
  for (auto& w : bed.workers()) w->Stop();
  for (auto& ini : bed.initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  bed.sim().Run();
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  return obs.tracer.Digest();
}

// Three SSDs on three of the target's four cores. Sparse: one QD1 128KB
// tenant on SSD 0. Dense: a victim and a write neighbour on every SSD.
constexpr Tick kScheduleWarmup = Milliseconds(5);
constexpr Tick kScheduleMeasure = Milliseconds(15);

struct ScheduleRun {
  uint64_t digest = 0;
  uint64_t events = 0;
  Tick end_clock = 0;
  std::vector<workload::WorkerStats> tenants;  // measurement window
};

ScheduleRun RunMultiSsd(uint64_t seed, bool sparse) {
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.num_ssds = 3;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.obs = &obs;
  cfg.run_label = sparse ? "schedule_sparse" : "schedule_dense";
  Testbed bed(cfg);
  if (sparse) {
    FioSpec lone;
    lone.io_bytes = 131072;
    lone.queue_depth = 1;
    lone.seed = seed;
    bed.AddWorker(lone, 0);
  } else {
    for (int s = 0; s < cfg.num_ssds; ++s) {
      FioSpec victim;
      victim.io_bytes = 4096;
      victim.queue_depth = 16;
      victim.seed = seed + static_cast<uint64_t>(s);
      bed.AddWorker(victim, s);
      FioSpec neighbor;
      neighbor.io_bytes = 131072;
      neighbor.queue_depth = 4;
      neighbor.read_ratio = 0.0;
      neighbor.seed = seed + 1000 + static_cast<uint64_t>(s);
      bed.AddWorker(neighbor, s);
    }
  }
  bed.Run(kScheduleWarmup, kScheduleMeasure);
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  ScheduleRun run{obs.tracer.Digest(), bed.sim().events_executed(),
                  bed.sim().now(), {}};
  for (auto& w : bed.workers()) run.tenants.push_back(w->stats());
  return run;
}

// The faulted variant spreads the fault machinery over two SSDs: per-SSD
// fault RNG streams, link-flap draws on the shared link, a device failure
// on one SSD and a tenant crash timer. It also runs the target's
// completion step, the largest closure the stack schedules, so it checks
// that no real closure outgrows InlineFn's inline buffer.
uint64_t MultiSsdFaultedDigest(uint64_t seed) {
  const uint64_t fallbacks_before = sim::InlineFn::heap_fallbacks();
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.num_ssds = 2;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.obs = &obs;
  cfg.run_label = "determinism_multi_ssd_faults";
  cfg.fault_seed = seed;
  cfg.retry.io_timeout = Milliseconds(2);
  cfg.retry.keepalive_interval = Milliseconds(1);
  cfg.target.session_timeout = Milliseconds(5);
  cfg.faults.stalls.push_back(
      {0, Milliseconds(8), Milliseconds(14), Microseconds(500)});
  cfg.faults.media_errors.push_back(
      {1, Milliseconds(12), Milliseconds(20), 0.1, Microseconds(200)});
  cfg.faults.link_flaps.push_back(
      {Milliseconds(16), Milliseconds(19), 0.05, Microseconds(10)});
  cfg.faults.failures.push_back({0, Milliseconds(22), Milliseconds(26)});
  Testbed bed(cfg);
  for (int s = 0; s < cfg.num_ssds; ++s) {
    FioSpec spec;
    spec.io_bytes = 4096;
    spec.queue_depth = 8;
    spec.seed = seed + 100 * static_cast<uint64_t>(s + 1);
    bed.AddWorker(spec, s);
  }
  fabric::Initiator& crasher = bed.workers()[0]->initiator();
  bed.faults().ScheduleTenantCrash(Milliseconds(18), crasher.tenant(),
                                   [&crasher]() { crasher.Crash(); });
  for (auto& w : bed.workers()) w->Start();
  bed.sim().RunUntil(Milliseconds(32));
  for (auto& w : bed.workers()) w->Stop();
  for (auto& ini : bed.initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  bed.sim().Run();
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  EXPECT_EQ(sim::InlineFn::heap_fallbacks(), fallbacks_before)
      << "a scheduled closure outgrew InlineFn's inline buffer";
  return obs.tracer.Digest();
}

class DeterminismGolden : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismGolden, InterferenceTraceDigestIsStable) {
  const uint64_t seed = GetParam();
  EXPECT_EQ(InterferenceDigest(seed), InterferenceDigest(seed))
      << "run not deterministic, seed " << seed;
}

TEST_P(DeterminismGolden, FaultedTraceDigestIsStable) {
  const uint64_t seed = GetParam();
  EXPECT_EQ(FaultedDigest(seed), FaultedDigest(seed))
      << "run not deterministic, seed " << seed;
}

TEST_P(DeterminismGolden, MultiSsdTraceDigestIsStable) {
  const uint64_t seed = GetParam();
  EXPECT_EQ(RunMultiSsd(seed, /*sparse=*/false).digest,
            RunMultiSsd(seed, /*sparse=*/false).digest)
      << "multi-SSD run not deterministic, seed " << seed;
}

TEST_P(DeterminismGolden, MultiSsdFaultedTraceDigestIsStable) {
  const uint64_t seed = GetParam();
  EXPECT_EQ(MultiSsdFaultedDigest(seed), MultiSsdFaultedDigest(seed))
      << "multi-SSD run not deterministic, seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismGolden,
                         ::testing::Values(1u, 7u, 42u));

// Digests must also *differ* when the workload differs — a constant hash
// would pass the equality tests above while checking nothing.
TEST(DeterminismGolden, DigestDiscriminatesDifferentRuns) {
  EXPECT_NE(InterferenceDigest(1), InterferenceDigest(2));
}

// --- Pinned multi-SSD schedule ---------------------------------------------

struct ScheduleParam {
  uint64_t seed;
  bool sparse;
  uint64_t digest;
  uint64_t events;
};

void PrintTo(const ScheduleParam& p, std::ostream* os) {
  *os << (p.sparse ? "sparse" : "dense") << " seed " << p.seed;
}

class MultiSsdSchedule : public ::testing::TestWithParam<ScheduleParam> {};

// Every tenant, on whichever SSD it sits, completes I/O in the
// measurement window and none fails; the one clock ends at the deadline.
TEST_P(MultiSsdSchedule, EveryTenantCompletesIoAndTheClockEndsAtTheDeadline) {
  const ScheduleParam p = GetParam();
  const ScheduleRun run = RunMultiSsd(p.seed, p.sparse);
  EXPECT_EQ(run.end_clock, kScheduleWarmup + kScheduleMeasure);
  ASSERT_EQ(run.tenants.size(), p.sparse ? 1u : 6u);
  for (size_t i = 0; i < run.tenants.size(); ++i) {
    EXPECT_GT(run.tenants[i].total_ios(), 0u) << "tenant " << i;
    EXPECT_EQ(run.tenants[i].failed_ios, 0u) << "tenant " << i;
  }
}

TEST_P(MultiSsdSchedule, DigestAndEventsMatchPinnedValues) {
  const ScheduleParam p = GetParam();
  const ScheduleRun run = RunMultiSsd(p.seed, p.sparse);
  EXPECT_EQ(run.digest, p.digest);
  EXPECT_EQ(run.events, p.events);
}

// The sparse bed's one QD1 tenant ends up on the same trace whatever its
// seed; the dense runs differ per seed.
INSTANTIATE_TEST_SUITE_P(
    Seeds, MultiSsdSchedule,
    ::testing::Values(
        ScheduleParam{1u, true, 0xcc7b2893a0ec9d9cull, 1474},
        ScheduleParam{7u, true, 0xcc7b2893a0ec9d9cull, 1474},
        ScheduleParam{42u, true, 0xcc7b2893a0ec9d9cull, 1474},
        ScheduleParam{1u, false, 0xa6891000fa3d49b1ull, 19244},
        ScheduleParam{7u, false, 0xd9c3f5c9faa815c3ull, 19251},
        ScheduleParam{42u, false, 0x8867eed41d0c3ff5ull, 19251}));

}  // namespace
}  // namespace gimbal
