// Determinism golden tests (docs/SIMULATOR.md).
//
// Runs whole testbeds — a Fig-4-style interference scenario and a faulted
// scenario exercising stalls, media errors, link flaps, a device failure
// and a tenant crash, each on one SSD and on a sharded multi-SSD bed —
// with the event tracer on, and hashes the full event trace (timestamp,
// event name, tenant, ssd, args) into one digest. For each seed the digest
// must be identical run-to-run (the simulation is deterministic): any
// ordering bug in the event queue or any stray RNG draw changes it.
#include <gtest/gtest.h>

#include <cstdint>

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

// Multi-SSD testbed → the sharded engine (docs/SIMULATOR.md): shard 0 is
// the client domain, each used target core a shard of its own.
uint64_t ShardedDigest(uint64_t seed) {
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.num_ssds = 3;  // < target cores (4): one pipeline per core shard
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.obs = &obs;
  cfg.run_label = "determinism_sharded";
  Testbed bed(cfg);
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
  bed.Run(Milliseconds(5), Milliseconds(15));
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  return obs.tracer.Digest();
}

// The faulted variant stresses the riskiest cross-shard machinery: per-SSD
// fault RNG streams, link-flap draws at barrier replay, a device failure
// on one shard and a tenant crash timer on the client shard. It also runs
// the target's completion step, the largest closure the stack schedules,
// so it checks that no real closure outgrows InlineFn's inline buffer.
uint64_t ShardedFaultedDigest(uint64_t seed) {
  const uint64_t fallbacks_before = sim::InlineFn::heap_fallbacks();
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.num_ssds = 2;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.obs = &obs;
  cfg.run_label = "determinism_sharded_faults";
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

TEST_P(DeterminismGolden, ShardedTraceDigestIsStable) {
  const uint64_t seed = GetParam();
  EXPECT_EQ(ShardedDigest(seed), ShardedDigest(seed))
      << "sharded run not deterministic, seed " << seed;
}

TEST_P(DeterminismGolden, ShardedFaultedTraceDigestIsStable) {
  const uint64_t seed = GetParam();
  EXPECT_EQ(ShardedFaultedDigest(seed), ShardedFaultedDigest(seed))
      << "sharded run not deterministic, seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismGolden,
                         ::testing::Values(1u, 7u, 42u));

// Digests must also *differ* when the workload differs — a constant hash
// would pass the equality tests above while checking nothing.
TEST(DeterminismGolden, DigestDiscriminatesDifferentRuns) {
  EXPECT_NE(InterferenceDigest(1), InterferenceDigest(2));
}

}  // namespace
}  // namespace gimbal
