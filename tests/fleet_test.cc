// Tests for the tenant-scale open-loop fleet (src/workload/fleet.h) and the
// per-tenant arena plumbing underneath it:
//
//   * churn storm — ~100k connect/disconnect cycles on a 2-SSD
//     testbed must drain to nothing: no live target sessions, no scheduler
//     tenants, every arena slot recycled, ledgers balanced and freed (and
//     never more of them than live + draining sessions along the way),
//     and the trace digest bit-identical run to run;
//   * reap regression — Disconnect must reap a registered tenant that
//     never did IO (a side map once kept an entry for each such tenant);
//   * SLO export — the tracker's p99/p99.9 gauges and violation counters
//     appear in the metrics JSON under their documented names;
//   * pinned totals — a small churning fleet's TotalStats(), SLO window
//     counts, connects and trace digest are pinned to recorded values;
//   * idle-tenant heap — a registered tenant or connected initiator that
//     never queues an IO costs its own struct plus index bookkeeping, not
//     a preallocated queue buffer; an active fleet seat costs its
//     initiator and worker plus one window slot, not per-seat stats; and
//     a closed session leaves nothing in the invariant checker.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "core/drr_scheduler.h"
#include "core/virtual_slot.h"
#include "core/write_cost.h"
#include "fabric/initiator.h"
#include "obs/obs.h"
#include "obs/schema.h"
#include "workload/fleet.h"
#include "workload/openloop.h"
#include "workload/runner.h"

namespace gimbal::workload {
namespace {

TestbedConfig ChurnConfig(obs::Observability* obs) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.num_ssds = 2;
  cfg.ssd.logical_bytes = 64ull << 20;
  cfg.obs = obs;
  cfg.run_label = "fleet_churn";
  return cfg;
}

FleetSpec ChurnSpec() {
  FleetSpec fs;
  // Seats * (run / lifetime) ≈ 4000 * 25 churn cycles ≈ 100k
  // connect/disconnect pairs; most sessions are too short to issue IO, so
  // the storm stresses the session/tenant bookkeeping, not the device.
  fs.sessions = 4000;
  fs.rates.mean_iops = 20.0;
  fs.rates.dist = RateDist::kPareto;
  fs.session_lifetime_mean = Milliseconds(2);
  fs.rampup = Milliseconds(2);
  fs.read_ratio = 0.7;  // writes exercise the staging/disconnect race
  fs.seed = 99;
  return fs;
}

struct ChurnResult {
  uint64_t connects = 0;
  uint64_t digest = 0;
};

ChurnResult RunChurnStorm() {
  obs::Observability obs;
  obs.tracer.Enable(4u << 20);
  Testbed bed(ChurnConfig(&obs));
  OpenLoopFleet fleet(bed, ChurnSpec());
  // Sweep the graveyard every 100 us of the storm and bound the checker's
  // ledgers by the sessions still alive: seats plus draining.
  size_t sweeps = 0;
  std::function<void()> probe = [&]() {
    const size_t draining = fleet.SweepGraveyard();
    const size_t alive = fleet.active_sessions() + draining;
    const check::InvariantChecker::LedgerCount live =
        bed.checker().live_ledgers();
    EXPECT_LE(live.client, alive) << "at " << bed.sim().now();
    EXPECT_LE(live.policy, alive) << "at " << bed.sim().now();
    ++sweeps;
    if (bed.sim().now() < Milliseconds(50)) {
      bed.sim().After(Microseconds(100), probe);
    }
  };
  bed.sim().After(Microseconds(100), probe);
  fleet.Start();
  bed.sim().RunUntil(Milliseconds(50));
  EXPECT_EQ(sweeps, 500u);
  fleet.Stop();
  // Run to idle: the storm's capsule backlog on the shared link can take
  // far longer than any fixed deadline to drain.
  bed.sim().Run();

  EXPECT_GE(fleet.connects(), 90000u) << "storm did not reach ~100k cycles";
  EXPECT_EQ(fleet.connects(), fleet.disconnects());
  EXPECT_EQ(fleet.active_sessions(), 0u);
  EXPECT_EQ(fleet.SweepGraveyard(), 0u) << "initiators still draining";

  // The target forgot nobody: every session slot was freed and recycled.
  EXPECT_EQ(bed.target().live_sessions(), 0u);

  // Every scheduler reaped every tenant, and the arenas recycled every
  // slot they ever carved (live + free == capacity, live == 0).
  for (int i = 0; i < bed.config().num_ssds; ++i) {
    core::GimbalSwitch* sw = bed.gimbal_switch(i);
    EXPECT_NE(sw, nullptr);
    if (sw == nullptr) continue;
    const core::DrrScheduler& drr = sw->scheduler();
    EXPECT_EQ(drr.tenant_count(), 0u) << "ssd " << i;
    EXPECT_EQ(drr.queued_total(), 0u) << "ssd " << i;
    EXPECT_EQ(drr.tenant_arena().size(), 0u) << "ssd " << i;
    EXPECT_EQ(drr.tenant_arena().capacity(),
              drr.tenant_arena().free_count())
        << "orphaned arena slots on ssd " << i;
  }

  // Ledger balance across the whole storm (admit == terminal everywhere),
  // and every closed session's ledgers were freed as they balanced.
  EXPECT_TRUE(bed.checker().CheckDrained());
  EXPECT_EQ(bed.checker().live_ledgers().client, 0u);
  EXPECT_EQ(bed.checker().live_ledgers().policy, 0u);
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  return {fleet.connects(), obs.tracer.Digest()};
}

TEST(FleetChurn, StormDrainsCleanAndIsDeterministic) {
  const ChurnResult a = RunChurnStorm();
  const ChurnResult b = RunChurnStorm();
  EXPECT_EQ(a.connects, b.connects);
  EXPECT_EQ(a.digest, b.digest) << "same storm, different trace";
}

// A small churning fleet of reads and writes whose heavy Pareto seats
// shed arrivals now and then (max_outstanding 2) and whose SLO windows
// are tracked.
FleetSpec PinnedSpec() {
  FleetSpec fs;
  fs.sessions = 400;
  fs.rates.dist = RateDist::kPareto;
  fs.rates.mean_iops = 500.0;
  fs.rates.max_multiple = 10.0;
  fs.read_ratio = 0.7;
  fs.max_outstanding = 2;
  fs.session_lifetime_mean = Milliseconds(4);
  fs.rampup = Milliseconds(1);
  fs.seed = 7;
  fs.slo.read_p99 = Microseconds(200);
  fs.slo.write_p99 = Microseconds(200);
  fs.slo.window = Milliseconds(1);
  return fs;
}

// FNV-1a over everything TotalStats() reports.
uint64_t TotalsHash(const OpenLoopFleet::Totals& t) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  const WorkerStats& s = t.stats;
  mix(s.read_ios);
  mix(s.write_ios);
  mix(s.read_bytes);
  mix(s.write_bytes);
  mix(s.failed_ios);
  mix(t.dropped);
  for (const LatencyHistogram* hist : {&s.read_latency, &s.write_latency}) {
    mix(hist->count());
    mix(static_cast<uint64_t>(hist->sum()));
    mix(static_cast<uint64_t>(hist->min()));
    mix(static_cast<uint64_t>(hist->max()));
    mix(static_cast<uint64_t>(hist->p50()));
    mix(static_cast<uint64_t>(hist->p99()));
    mix(static_cast<uint64_t>(hist->p999()));
  }
  return h;
}

struct PinnedRun {
  uint64_t mid_totals = 0;  // TotalStats() with every seat live
  uint64_t end_totals = 0;  // after Stop() and the drain
  uint64_t slo_windows = 0;
  uint64_t slo_violated = 0;
  uint64_t connects = 0;
  uint64_t digest = 0;
  OpenLoopFleet::Totals end;
};

PinnedRun RunPinnedFleet(bool observed) {
  obs::Observability obs;
  obs.tracer.Enable(1u << 20);
  TestbedConfig cfg = ChurnConfig(observed ? &obs : nullptr);
  // Every issued IO arms a timeout that its completion cancels.
  cfg.retry.io_timeout = Milliseconds(2);
  Testbed bed(cfg);
  OpenLoopFleet fleet(bed, PinnedSpec());
  fleet.Start();
  bed.sim().RunUntil(Milliseconds(20));
  PinnedRun r;
  r.mid_totals = TotalsHash(fleet.TotalStats());
  fleet.Stop();
  bed.sim().Run();
  EXPECT_EQ(fleet.SweepGraveyard(), 0u);
  EXPECT_TRUE(bed.checker().CheckDrained());
  r.end = fleet.TotalStats();
  r.end_totals = TotalsHash(r.end);
  fleet.slo().FinalizeWindows();
  r.slo_windows = fleet.slo().windows();
  r.slo_violated = fleet.slo().windows_violated();
  r.connects = fleet.connects();
  r.digest = obs.tracer.Digest();
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  return r;
}

// The fleet's client-side accounting must not drift when the initiator's
// in-flight bookkeeping or the workers' stats plumbing is reorganised: the
// expected values were recorded from the per-IO hash map initiator with
// per-worker stats merged on demand.
TEST(FleetTotals, ArePinned) {
  const PinnedRun r = RunPinnedFleet(/*observed=*/true);
  // Not vacuous: reads, writes and shed arrivals all happened.
  EXPECT_GT(r.end.stats.read_ios, 0u);
  EXPECT_GT(r.end.stats.write_ios, 0u);
  EXPECT_GT(r.end.dropped, 0u);
  EXPECT_GT(r.slo_violated, 0u);
  EXPECT_EQ(r.mid_totals, 9145494755795520813ull);
  // Stop() retires every seat at once and a retired session's tail is not
  // counted (ROADMAP item 11), so the drain adds nothing.
  EXPECT_EQ(r.end_totals, 9145494755795520813ull);
  EXPECT_EQ(r.slo_windows, 2529u);
  EXPECT_EQ(r.slo_violated, 801u);
  EXPECT_EQ(r.connects, 2314u);
  EXPECT_EQ(r.digest, 5334092767439847897ull);
  // Observability changes nothing the fleet counts.
  const PinnedRun bare = RunPinnedFleet(/*observed=*/false);
  EXPECT_EQ(bare.mid_totals, r.mid_totals);
  EXPECT_EQ(bare.end_totals, r.end_totals);
  EXPECT_EQ(bare.slo_windows, r.slo_windows);
  EXPECT_EQ(bare.slo_violated, r.slo_violated);
  EXPECT_EQ(bare.connects, r.connects);
}

TEST(DrrScheduler, DisconnectReapsTenantRegisteredWithoutIo) {
  // Regression: per-tenant state once lived partly in a side map that
  // Disconnect never erased, so a tenant registered without IO leaked an
  // entry per churn cycle. All of it rides in the arena slot and is
  // reaped with it.
  core::GimbalParams params;
  core::WriteCostEstimator cost(params);
  core::DrrScheduler drr(params, cost);
  for (TenantId t = 1; t <= 1000; ++t) {
    drr.GetTenant(t);
    EXPECT_NE(drr.FindTenant(t), nullptr);
    drr.Disconnect(t);
    EXPECT_EQ(drr.FindTenant(t), nullptr);
  }
  EXPECT_EQ(drr.tenant_count(), 0u);
  EXPECT_EQ(drr.tenant_arena().size(), 0u);
  EXPECT_EQ(drr.tenant_arena().capacity(), drr.tenant_arena().free_count());
}

// Heap bytes in use (glibc), mmapped chunks included.
size_t HeapInUseBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

constexpr int kIdleTenants = 4096;

TEST(IdleTenantHeap, DrrTenantCostsItsStateOnly) {
  // Regression: each TenantState once held three std::deques, and an
  // empty libstdc++ deque allocates a 64 B map plus a 512 B node, so an
  // idle tenant cost ~1.7 KiB of queue buffers on top of its state.
  core::GimbalParams params;
  core::WriteCostEstimator cost(params);
  core::DrrScheduler drr(params, cost);
  const size_t before = HeapInUseBytes();
  for (TenantId t = 1; t <= kIdleTenants; ++t) drr.GetTenant(t);
  const size_t per_tenant = (HeapInUseBytes() - before) / kIdleTenants;
  // Slack: the arena's deque rounds slots into 512 B nodes, its live and
  // position lists hold 8 B per slot, and the index's 16 B cells sit at
  // 35-70% load (~46 B per tenant at worst).
  constexpr size_t kArenaAndIndexSlack = 96;
  EXPECT_LE(per_tenant, sizeof(core::TenantState) + kArenaAndIndexSlack)
      << "sizeof(TenantState) = " << sizeof(core::TenantState);
  EXPECT_EQ(drr.tenant_count(), static_cast<size_t>(kIdleTenants));
}

TEST(IdleTenantHeap, IdleInitiatorCostsItsStateOnly) {
  // Same regression for the client side: Initiator::pending_ was a
  // std::deque, ~0.6 KiB per connected initiator that never queued.
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 64ull << 20;
  Testbed bed(cfg);
  std::vector<std::unique_ptr<fabric::Initiator>> inits;
  inits.reserve(kIdleTenants);
  const size_t before = HeapInUseBytes();
  for (int i = 0; i < kIdleTenants; ++i) {
    inits.push_back(bed.MakeInitiator(
        0, static_cast<TenantId>(1000 + i), fabric::ConnectMode::kDirect));
  }
  const size_t per_init = (HeapInUseBytes() - before) / kIdleTenants;
  // Slack: the allocation's chunk header, plus the target's session slot
  // (arena node rounding, live/position lists, session index) that a
  // direct connect registers.
  constexpr size_t kSessionSlack = 192;
  EXPECT_LE(per_init, sizeof(fabric::Initiator) + kSessionSlack)
      << "sizeof(Initiator) = " << sizeof(fabric::Initiator);
  EXPECT_EQ(inits.back()->queued(), 0u);
}

TEST(IdleTenantHeap, ActiveSeatCostsItsStructsOnly) {
  // A fleet seat that has completed IOs and has one in flight: its
  // initiator's window holds one slot and its worker records into the
  // shared sink. Regression: each seat once kept its own WorkerStats (a
  // histogram row per latency band it saw) and its initiator a hash map
  // node and bucket array per in-flight IO next to the queue's buffer.
  TestbedConfig cfg;
  cfg.scheme = Scheme::kVanilla;
  cfg.use_null_device = true;
  Testbed bed(cfg);
  OpenLoopSink sink;
  OpenLoopSpec spec;
  spec.offered_iops = 1e8;  // arrivals every ~10 ns...
  spec.max_outstanding = 1;  // ...all shed but one
  spec.region_bytes = bed.device(0).capacity_bytes();
  struct Seat {
    std::unique_ptr<fabric::Initiator> init;
    std::unique_ptr<OpenLoopWorker> worker;
  };
  std::vector<Seat> seats;
  seats.reserve(kIdleTenants);
  // Starts every worker, lets each issue its one IO, and stops them.
  auto one_io_each = [&]() {
    for (Seat& s : seats) s.worker->Start();
    bed.sim().RunUntil(bed.sim().now() + Nanoseconds(200));
    for (Seat& s : seats) s.worker->Stop();
  };
  const size_t before = HeapInUseBytes();
  for (int i = 0; i < kIdleTenants; ++i) {
    Seat s;
    s.init = bed.MakeInitiator(0, static_cast<TenantId>(1000 + i),
                               fabric::ConnectMode::kDirect);
    spec.seed = static_cast<uint64_t>(i) + 1;
    s.worker =
        std::make_unique<OpenLoopWorker>(bed.sim(), *s.init, spec, &sink);
    seats.push_back(std::move(s));
  }
  one_io_each();
  bed.sim().Run();  // every seat completes its IO
  one_io_each();
  const size_t per_seat = (HeapInUseBytes() - before) / kIdleTenants;
  for (const Seat& s : seats) ASSERT_EQ(s.init->inflight(), 1u);
  EXPECT_EQ(sink.stats.read_ios, static_cast<uint64_t>(kIdleTenants));
  EXPECT_GT(sink.dropped, 0u);
  // Slack, measured at ~790 B: two allocation headers; the target's
  // session slot and the invariant checker's client and policy ledgers
  // (~0.2 KiB); one window slot (an IoRequest, a callback and a timer
  // handle: 104 B plus its header); and the event queue nodes (~0.15 KiB
  // each) that held the seat's arrival timer and command capsule at the
  // peak, with the node pool's doubling (~0.4 KiB). A per-seat histogram
  // row alone is 0.25 KiB, a hash map node and bucket array per in-flight
  // IO ~0.25 KiB.
  constexpr size_t kActiveSlack = 896;
  EXPECT_LE(per_seat, sizeof(fabric::Initiator) + sizeof(OpenLoopWorker) +
                          kActiveSlack)
      << "sizeof(Initiator) = " << sizeof(fabric::Initiator)
      << ", sizeof(OpenLoopWorker) = " << sizeof(OpenLoopWorker);
  bed.sim().Run();
}

TEST(IdleTenantHeap, ClosedSessionsLeaveNoCheckerLedgers) {
  // Regression: the invariant checker kept a client and a policy ledger
  // for every (tenant, ssd) that ever submitted an IO, ~3 MiB by the end
  // of a fleet_churn window. A closed session's ledgers are now freed once
  // they balance, so the checker's heap follows the sessions alive at
  // once (kWindow here), not the sessions ever run.
  constexpr TenantId kWindow = 64;
  constexpr TenantId kSessions = 16384;
  check::InvariantChecker chk;
  auto open_io = [&](TenantId t) {
    const int ssd = static_cast<int>(t % 2);
    chk.OnClientAdmit(t, ssd, 1);
    chk.OnClientIssue(t, ssd, 0, 1, 8, true);
    chk.OnTargetAdmit(t, ssd);
    chk.OnPolicyDispatch(t, ssd);
  };
  auto finish_and_close = [&](TenantId t) {
    const int ssd = static_cast<int>(t % 2);
    chk.OnDeviceReturn(t, ssd, true);
    chk.OnCreditGrant(t, ssd, 16);
    chk.OnPolicyDeliver(t, ssd, true);
    chk.OnClientCreditUpdate(t, ssd, 16);
    chk.OnClientClose(t, ssd);  // one IO still in flight: kept
    chk.OnClientTerminal(t, ssd, true, true, 0);
    chk.OnTargetSessionClosed(t, ssd);
  };
  // Warm-up: the arenas and indexes reach the window's high-water mark.
  TenantId t = 1;
  for (; t <= 4 * kWindow; ++t) {
    open_io(t);
    if (t > kWindow) finish_and_close(t - kWindow);
  }
  const size_t before = HeapInUseBytes();
  for (; t <= kSessions; ++t) {
    open_io(t);
    finish_and_close(t - kWindow);
  }
  const size_t grown = HeapInUseBytes() - before;
  EXPECT_EQ(chk.live_ledgers().client, static_cast<size_t>(kWindow));
  EXPECT_EQ(chk.live_ledgers().policy, static_cast<size_t>(kWindow));
  // Zero in practice; the slack covers allocator noise, not a per-session
  // cost (16k sessions x even 1 B would exceed it).
  EXPECT_LE(grown, 4096u) << "checker heap grew with churned sessions";
  for (TenantId u = t - kWindow; u < t; ++u) finish_and_close(u);
  EXPECT_EQ(chk.live_ledgers().client, 0u);
  EXPECT_EQ(chk.live_ledgers().policy, 0u);
  EXPECT_TRUE(chk.CheckDrained());
}

TEST(Slo, MetricsAppearInJsonExport) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 64ull << 20;
  Testbed bed(cfg);

  FleetSpec fs;
  fs.sessions = 16;
  fs.rates.dist = RateDist::kUniform;
  fs.rates.mean_iops = 2000.0;
  fs.seed = 5;
  fs.slo.read_p99 = Microseconds(1);  // absurdly tight: every window violates
  fs.slo.read_p999 = Microseconds(2);
  fs.slo.write_p99 = Microseconds(1);
  fs.slo.window = Milliseconds(1);
  OpenLoopFleet fleet(bed, fs);
  fleet.Start();
  bed.sim().RunUntil(Milliseconds(20));
  fleet.Stop();
  bed.sim().RunUntil(bed.sim().now() + Milliseconds(5));

  EXPECT_GT(fleet.slo().windows(), 0u);
  EXPECT_GT(fleet.slo().windows_violated(), 0u);
  EXPECT_GT(fleet.slo().time_in_violation(), 0u);

  obs::MetricsRegistry reg;
  fleet.ExportSlo(reg);
  const std::string json = reg.ToJson();
  for (const obs::MetricDef* def :
       {&obs::schema::kSloWindows, &obs::schema::kSloWindowsViolated,
        &obs::schema::kSloReadP99, &obs::schema::kSloReadP999,
        &obs::schema::kSloTimeInViolation, &obs::schema::kSloReadLatency}) {
    EXPECT_NE(json.find(def->name), std::string::npos)
        << "metric " << def->name << " missing from JSON export";
  }
}

}  // namespace
}  // namespace gimbal::workload
