// Fault-injection subsystem (docs/FAULTS.md): injector windows and health
// transitions, retry backoff arithmetic, schedule determinism, and the
// end-to-end crash → keepalive-timeout → reap path.
#include <gtest/gtest.h>

#include <vector>

#include "fabric/initiator.h"
#include "fault/fault.h"
#include "fault/health.h"
#include "obs/obs.h"
#include "obs/schema.h"
#include "workload/runner.h"

namespace gimbal {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::SsdHealth;
using workload::FioSpec;
using workload::Scheme;
using workload::SsdCondition;
using workload::Testbed;
using workload::TestbedConfig;

// --------------------------------------------------------------------------
// Health state machine.
// --------------------------------------------------------------------------

TEST(SsdHealthTest, TransitionTable) {
  using H = SsdHealth;
  // Legal edges of the diagram in fault/health.h.
  EXPECT_TRUE(fault::ValidTransition(H::kHealthy, H::kDegraded));
  EXPECT_TRUE(fault::ValidTransition(H::kHealthy, H::kFailed));
  EXPECT_TRUE(fault::ValidTransition(H::kDegraded, H::kHealthy));
  EXPECT_TRUE(fault::ValidTransition(H::kDegraded, H::kFailed));
  EXPECT_TRUE(fault::ValidTransition(H::kFailed, H::kRecovering));
  EXPECT_TRUE(fault::ValidTransition(H::kRecovering, H::kHealthy));
  EXPECT_TRUE(fault::ValidTransition(H::kRecovering, H::kFailed));
  // Self-transitions are no-ops, not errors.
  EXPECT_TRUE(fault::ValidTransition(H::kFailed, H::kFailed));
  // A dead device cannot silently resurrect.
  EXPECT_FALSE(fault::ValidTransition(H::kFailed, H::kHealthy));
  EXPECT_FALSE(fault::ValidTransition(H::kFailed, H::kDegraded));
  EXPECT_FALSE(fault::ValidTransition(H::kHealthy, H::kRecovering));
  EXPECT_FALSE(fault::ValidTransition(H::kDegraded, H::kRecovering));
}

TEST(SsdHealthTest, MachineIgnoresInvalidTransitions) {
  fault::SsdHealthMachine m;
  EXPECT_EQ(m.health(), SsdHealth::kHealthy);
  EXPECT_TRUE(m.Set(SsdHealth::kDegraded, 0));
  EXPECT_TRUE(m.Set(SsdHealth::kFailed, 0));
  // A stall window ending after the device failed must not resurrect it.
  EXPECT_FALSE(m.Set(SsdHealth::kHealthy, 0));
  EXPECT_EQ(m.health(), SsdHealth::kFailed);
  EXPECT_TRUE(m.Set(SsdHealth::kRecovering, 0));
  EXPECT_TRUE(m.Set(SsdHealth::kHealthy, 0));
  // Same-state set reports no change.
  EXPECT_FALSE(m.Set(SsdHealth::kHealthy, 0));
}

// --------------------------------------------------------------------------
// Retry backoff arithmetic.
// --------------------------------------------------------------------------

TEST(RetryTest, BackoffDoublesUntilCap) {
  fabric::RetryParams p;
  p.backoff_base = Microseconds(50);
  p.backoff_cap = Milliseconds(5);
  EXPECT_EQ(fabric::BackoffFor(p, 1), Microseconds(50));
  EXPECT_EQ(fabric::BackoffFor(p, 2), Microseconds(100));
  EXPECT_EQ(fabric::BackoffFor(p, 3), Microseconds(200));
  EXPECT_EQ(fabric::BackoffFor(p, 4), Microseconds(400));
  // 50us * 2^7 = 6.4ms clamps to the cap.
  EXPECT_EQ(fabric::BackoffFor(p, 8), Milliseconds(5));
  // And stays there no matter how deep the retry chain goes.
  EXPECT_EQ(fabric::BackoffFor(p, 60), Milliseconds(5));
}

// --------------------------------------------------------------------------
// Injector windows drive IO decisions and health.
// --------------------------------------------------------------------------

TEST(FaultInjectorTest, WindowsForceStatusesAndHealth) {
  sim::Simulator sim;
  FaultInjector inj(sim, /*num_ssds=*/2, /*seed=*/7);
  FaultPlan plan;
  plan.media_errors.push_back(
      {0, Microseconds(10), Microseconds(20), 1.0, Microseconds(5)});
  plan.stalls.push_back(
      {1, Microseconds(10), Microseconds(20), Microseconds(3)});
  plan.failures.push_back({0, Microseconds(30), Microseconds(40)});
  plan.recovery_probation = Microseconds(5);
  inj.Schedule(plan);

  std::vector<SsdHealth> seen;
  inj.Subscribe(0, [&seen](SsdHealth h) { seen.push_back(h); });

  // Before any window: clean pass-through.
  auto f = inj.OnDeviceSubmit(0, IoType::kRead, sim.now());
  EXPECT_EQ(f.force_status, IoStatus::kOk);
  EXPECT_EQ(f.extra_latency, 0);

  sim.RunUntil(Microseconds(15));
  f = inj.OnDeviceSubmit(0, IoType::kRead, sim.now());
  EXPECT_EQ(f.force_status, IoStatus::kMediaError);  // p = 1.0
  EXPECT_EQ(f.fault_latency, Microseconds(5));
  auto s = inj.OnDeviceSubmit(1, IoType::kWrite, sim.now());
  EXPECT_EQ(s.force_status, IoStatus::kOk);
  EXPECT_EQ(s.extra_latency, Microseconds(3));
  EXPECT_EQ(inj.health(0), SsdHealth::kDegraded);
  EXPECT_EQ(inj.health(1), SsdHealth::kDegraded);

  sim.RunUntil(Microseconds(25));
  EXPECT_EQ(inj.health(0), SsdHealth::kHealthy);
  EXPECT_EQ(inj.health(1), SsdHealth::kHealthy);
  EXPECT_EQ(inj.OnDeviceSubmit(0, IoType::kRead, sim.now()).force_status,
            IoStatus::kOk);

  sim.RunUntil(Microseconds(35));
  EXPECT_EQ(inj.health(0), SsdHealth::kFailed);
  f = inj.OnDeviceSubmit(0, IoType::kRead, sim.now());
  EXPECT_EQ(f.force_status, IoStatus::kDeviceFailed);

  sim.RunUntil(Microseconds(42));
  EXPECT_EQ(inj.health(0), SsdHealth::kRecovering);
  sim.RunUntil(Microseconds(50));  // probation over at 45us
  EXPECT_EQ(inj.health(0), SsdHealth::kHealthy);

  EXPECT_EQ(seen, (std::vector<SsdHealth>{
                      SsdHealth::kDegraded, SsdHealth::kHealthy,
                      SsdHealth::kFailed, SsdHealth::kRecovering,
                      SsdHealth::kHealthy}));
  EXPECT_GE(inj.counters().media_errors, 1u);
  EXPECT_GE(inj.counters().device_failed_ios, 1u);
  EXPECT_GE(inj.counters().stalled_ios, 1u);
}

TEST(FaultInjectorTest, LinkFlapDropsAndDelays) {
  sim::Simulator sim;
  FaultInjector inj(sim, 1, /*seed=*/3);
  FaultPlan plan;
  // Certain drop in the first window, pure delay in the second.
  plan.link_flaps.push_back({Microseconds(10), Microseconds(20), 1.0, 0});
  plan.link_flaps.push_back(
      {Microseconds(30), Microseconds(40), 0.0, Microseconds(2)});
  inj.Schedule(plan);

  EXPECT_FALSE(inj.OnLinkMessage(Microseconds(5)).drop);
  EXPECT_TRUE(inj.OnLinkMessage(Microseconds(15)).drop);
  auto l = inj.OnLinkMessage(Microseconds(35));
  EXPECT_FALSE(l.drop);
  EXPECT_EQ(l.extra_delay, Microseconds(2));
  EXPECT_FALSE(inj.OnLinkMessage(Microseconds(45)).drop);
  EXPECT_GE(inj.counters().link_dropped, 1u);
  EXPECT_GE(inj.counters().link_delayed, 1u);
}

// --------------------------------------------------------------------------
// End-to-end scenarios on the testbed.
// --------------------------------------------------------------------------

struct ScenarioResult {
  uint64_t bytes[2] = {0, 0};
  uint64_t failed[2] = {0, 0};
  uint64_t retries[2] = {0, 0};
  uint64_t timeouts[2] = {0, 0};
  FaultInjector::FaultCounters faults;
};

TestbedConfig FaultedConfig(uint64_t seed) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.fault_seed = seed;
  cfg.retry.io_timeout = Milliseconds(2);
  cfg.retry.keepalive_interval = Milliseconds(1);
  cfg.target.session_timeout = Milliseconds(5);
  cfg.faults.stalls.push_back(
      {0, Milliseconds(10), Milliseconds(20), Microseconds(500)});
  cfg.faults.media_errors.push_back(
      {0, Milliseconds(25), Milliseconds(35), 0.1, Microseconds(200)});
  cfg.faults.link_flaps.push_back(
      {Milliseconds(30), Milliseconds(34), 0.05, Microseconds(10)});
  cfg.faults.failures.push_back({0, Milliseconds(40), Milliseconds(45)});
  return cfg;
}

ScenarioResult RunFaultedScenario(uint64_t seed) {
  Testbed bed(FaultedConfig(seed));
  for (int i = 0; i < 2; ++i) {
    FioSpec spec;
    spec.io_bytes = 4096;
    spec.queue_depth = 8;
    spec.seed = 100 + static_cast<uint64_t>(i);
    bed.AddWorker(spec, 0);
  }
  for (auto& w : bed.workers()) w->Start();
  bed.sim().RunUntil(Milliseconds(60));
  for (auto& w : bed.workers()) w->Stop();
  for (auto& ini : bed.initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  bed.sim().Run();

  ScenarioResult r;
  for (int i = 0; i < 2; ++i) {
    r.bytes[i] = bed.workers()[i]->stats().total_bytes();
    r.failed[i] = bed.workers()[i]->stats().failed_ios;
    r.retries[i] = bed.workers()[i]->initiator().retries();
    r.timeouts[i] = bed.workers()[i]->initiator().timeouts();
  }
  r.faults = bed.faults().counters();
  return r;
}

// The per-IO device fault counters carry the ssd label: a media-error
// burst on SSD 1 of two moves only SSD 1's series, by exactly the
// injector's own count.
TEST(FaultE2eTest, MediaErrorCounterIsLabelledWithItsSsd) {
  obs::Observability obs;
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.num_ssds = 2;
  cfg.obs = &obs;
  cfg.faults.media_errors.push_back(
      {1, Milliseconds(5), Milliseconds(15), 0.1, Microseconds(200)});
  Testbed bed(cfg);
  for (int ssd = 0; ssd < 2; ++ssd) {
    FioSpec spec;
    spec.io_bytes = 4096;
    spec.queue_depth = 8;
    spec.seed = 100 + static_cast<uint64_t>(ssd);
    bed.AddWorker(spec, ssd);
  }
  for (auto& w : bed.workers()) w->Start();
  bed.sim().RunUntil(Milliseconds(20));
  for (auto& w : bed.workers()) w->Stop();
  bed.sim().Run();

  auto media_errors = [&](int ssd) {
    return obs.metrics
        .GetCounter(obs::schema::kFaultMediaErrors, obs::Labels::Ssd(ssd))
        .value();
  };
  const uint64_t injected = bed.faults().counters().media_errors;
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(media_errors(1), injected);
  EXPECT_EQ(media_errors(0), 0u);
}

TEST(FaultE2eTest, SameSeedSameSchedule) {
  const ScenarioResult a = RunFaultedScenario(11);
  const ScenarioResult b = RunFaultedScenario(11);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(a.bytes[i], b.bytes[i]) << "tenant " << i;
    EXPECT_EQ(a.failed[i], b.failed[i]) << "tenant " << i;
    EXPECT_EQ(a.retries[i], b.retries[i]) << "tenant " << i;
    EXPECT_EQ(a.timeouts[i], b.timeouts[i]) << "tenant " << i;
  }
  EXPECT_EQ(a.faults.media_errors, b.faults.media_errors);
  EXPECT_EQ(a.faults.device_failed_ios, b.faults.device_failed_ios);
  EXPECT_EQ(a.faults.stalled_ios, b.faults.stalled_ios);
  EXPECT_EQ(a.faults.link_dropped, b.faults.link_dropped);
  EXPECT_EQ(a.faults.link_delayed, b.faults.link_delayed);
  // The plan actually fired: the device failure window fails IOs (either
  // at the device or fail-fast in the switch) and both tenants progressed.
  EXPECT_GT(a.failed[0] + a.failed[1], 0u);
  EXPECT_GT(a.bytes[0], 0u);
  EXPECT_GT(a.bytes[1], 0u);
}

TEST(FaultE2eTest, CrashedTenantIsReapedAndLeavesNoState) {
  obs::Observability obs;
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.retry.io_timeout = Milliseconds(2);
  cfg.retry.keepalive_interval = Milliseconds(1);
  cfg.target.session_timeout = Milliseconds(5);
  cfg.obs = &obs;
  cfg.run_label = "crash_test";
  Testbed bed(cfg);
  for (int i = 0; i < 2; ++i) {
    FioSpec spec;
    spec.io_bytes = 4096;
    spec.queue_depth = 8;
    spec.seed = 200 + static_cast<uint64_t>(i);
    bed.AddWorker(spec, 0);
  }
  fabric::Initiator& crasher = bed.workers()[0]->initiator();
  bed.faults().ScheduleTenantCrash(Milliseconds(20), crasher.tenant(),
                                   [&crasher]() { crasher.Crash(); });
  for (auto& w : bed.workers()) w->Start();
  bed.sim().RunUntil(Milliseconds(60));
  for (auto& w : bed.workers()) w->Stop();
  for (auto& ini : bed.initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  bed.sim().Run();

  EXPECT_TRUE(crasher.crashed());
  EXPECT_EQ(bed.faults().counters().crashes, 1u);
  // Keepalives stopped at the crash; the reaper noticed within
  // session_timeout and disconnected the tenant at the target.
  EXPECT_EQ(bed.target().sessions_reaped(), 1u);
  EXPECT_EQ(bed.target().session_count(), 0u);
  // No scheduler state survives the reap + graceful shutdowns.
  EXPECT_EQ(bed.gimbal_switch(0)->scheduler().tenant_count(), 0u);
  // The surviving tenant kept running after the crash.
  EXPECT_GT(bed.workers()[1]->stats().total_bytes(), 0u);
  // The checker freed both tenants' ledgers: Crash() and Shutdown() closed
  // the client side, the reap and the disconnect the target side.
  EXPECT_TRUE(bed.checker().CheckDrained());
  EXPECT_EQ(bed.checker().live_ledgers().client, 0u);
  EXPECT_EQ(bed.checker().live_ledgers().policy, 0u);

  // Every admitted IO of both tenants reached exactly one terminal status.
  for (auto& ini : bed.initiators()) {
    const obs::Labels l = obs::Labels::TenantSsd(
        static_cast<int32_t>(ini->tenant()), ini->pipeline());
    const uint64_t submitted =
        obs.metrics.GetCounter(obs::schema::kInitiatorSubmitted, l).value();
    const uint64_t terminal =
        obs.metrics.GetCounter(obs::schema::kClientCompleted, l).value() +
        obs.metrics.GetCounter(obs::schema::kClientFailed, l).value();
    EXPECT_EQ(submitted, terminal) << "tenant " << ini->tenant();
    EXPECT_GT(submitted, 0u) << "tenant " << ini->tenant();
  }
}

// --------------------------------------------------------------------------
// Timer lifecycle: the cancellable-timer adoption (docs/SIMULATOR.md).
// --------------------------------------------------------------------------

// A completion cancels the IO's timeout timer outright. After the workload
// drains and the initiators shut down (cancelling their keepalives), the
// event queue is empty *now* — no fired-and-ignored timeout events linger
// until io_timeout later.
TEST(TimerLifecycleTest, CompletionCancelsTimeoutTimerLeavingQueueEmpty) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kVanilla;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.retry.io_timeout = Milliseconds(500);  // far beyond the whole run
  cfg.retry.keepalive_interval = Milliseconds(1);
  Testbed bed(cfg);
  FioSpec spec;
  spec.io_bytes = 4096;
  spec.queue_depth = 8;
  spec.seed = 5;
  bed.AddWorker(spec, 0);
  bed.workers()[0]->Start();
  bed.sim().RunUntil(Milliseconds(10));
  bed.workers()[0]->Stop();
  bed.sim().RunUntil(Milliseconds(20));  // drain in-flight IOs
  for (auto& ini : bed.initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  bed.sim().RunUntil(Milliseconds(30));  // flush the disconnect capsule
  EXPECT_GT(bed.workers()[0]->stats().total_bytes(), 0u);
  // No IO timed out...
  EXPECT_EQ(bed.workers()[0]->initiator().timeouts(), 0u);
  // ...and no timer is still parked: every armed timeout was cancelled by
  // its completion, the keepalive by Shutdown.
  EXPECT_EQ(bed.sim().pending_events(), 0u);
}

// A stall longer than io_timeout makes IOs time out and *then* complete at
// the device. The late completion must not double-count: every submitted
// IO reaches exactly one terminal status.
TEST(TimerLifecycleTest, LateCompletionAfterFiredTimeoutCountsOnce) {
  obs::Observability obs;
  TestbedConfig cfg;
  cfg.scheme = Scheme::kVanilla;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.retry.io_timeout = Milliseconds(1);
  // No retry budget: the first fired timeout is terminal, so the stalled
  // device's eventual completion can only arrive as a late completion.
  cfg.retry.max_retries = 0;
  cfg.retry.keepalive_interval = Milliseconds(1);
  cfg.obs = &obs;
  cfg.run_label = "late_completion";
  // Every IO in the window takes ~4ms extra — 4x the timeout.
  cfg.faults.stalls.push_back(
      {0, Milliseconds(5), Milliseconds(15), Milliseconds(4)});
  Testbed bed(cfg);
  FioSpec spec;
  spec.io_bytes = 4096;
  spec.queue_depth = 4;
  spec.seed = 6;
  bed.AddWorker(spec, 0);
  bed.workers()[0]->Start();
  bed.sim().RunUntil(Milliseconds(30));
  bed.workers()[0]->Stop();
  for (auto& ini : bed.initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  bed.sim().Run();

  fabric::Initiator& ini = bed.workers()[0]->initiator();
  EXPECT_GT(ini.timeouts(), 0u);
  EXPECT_GT(ini.late_completions(), 0u);
  const obs::Labels l = obs::Labels::TenantSsd(
      static_cast<int32_t>(ini.tenant()), ini.pipeline());
  const uint64_t submitted =
      obs.metrics.GetCounter(obs::schema::kInitiatorSubmitted, l).value();
  const uint64_t terminal =
      obs.metrics.GetCounter(obs::schema::kClientCompleted, l).value() +
      obs.metrics.GetCounter(obs::schema::kClientFailed, l).value();
  EXPECT_EQ(submitted, terminal);
  EXPECT_GT(submitted, 0u);
}

// Crash() cancels the keepalive timer for good: once the reaper collects
// the dead session, no stray keepalive re-registers it, across many
// keepalive intervals.
TEST(TimerLifecycleTest, CrashedTenantKeepaliveDoesNotResurrectSession) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.retry.io_timeout = Milliseconds(2);
  cfg.retry.keepalive_interval = Milliseconds(1);
  cfg.target.session_timeout = Milliseconds(5);
  Testbed bed(cfg);
  FioSpec spec;
  spec.io_bytes = 4096;
  spec.queue_depth = 8;
  spec.seed = 7;
  bed.AddWorker(spec, 0);
  fabric::Initiator& crasher = bed.workers()[0]->initiator();
  bed.faults().ScheduleTenantCrash(Milliseconds(10), crasher.tenant(),
                                   [&crasher]() { crasher.Crash(); });
  bed.workers()[0]->Start();
  // Past crash + 1.5x session_timeout: the reap has happened.
  bed.sim().RunUntil(Milliseconds(20));
  EXPECT_TRUE(crasher.crashed());
  EXPECT_EQ(bed.target().sessions_reaped(), 1u);
  EXPECT_EQ(bed.target().session_count(), 0u);
  // 30 more keepalive intervals: a surviving keepalive timer would have
  // re-touched the session by now.
  bed.sim().RunUntil(Milliseconds(50));
  EXPECT_EQ(bed.target().sessions_reaped(), 1u);
  EXPECT_EQ(bed.target().session_count(), 0u);
  bed.workers()[0]->Stop();
  bed.sim().Run();
}

}  // namespace
}  // namespace gimbal
