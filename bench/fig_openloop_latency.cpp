// Extension bench: the open-loop suite.
//
// Part 1 — the classic throughput-latency curve behind Fig 17's timeline:
// Poisson arrivals at a swept rate against one clean SSD, vanilla vs
// Gimbal. Past the ~400 KIOPS knee the vanilla open-loop p99 explodes
// unboundedly while Gimbal saturates at the paced rate with bounded device
// latency (excess arrivals queue at the ingress instead).
//
// Part 2 — the tenant-scale scenario suite (ROADMAP item 3): an
// OpenLoopFleet drives a large session population (100k concurrent in the
// full run; a scaled-down deterministic config under --quick for the
// golden harness) through four regimes:
//   steady   Poisson arrivals, heavy-tailed (Pareto) per-session rates
//   burst    MMPP storm: rate x8 for ~10% of the time
//   diurnal  sinusoidal swing of the whole population's offered load
//   churn    exponential session lifetimes: a rolling connect/disconnect
//            storm at full population
// Each scenario self-checks: the invariant checker's end-of-run balances,
// every session drained, the target session table empty.
//
// Part 3 — scheduler dispatch cost vs *total* tenant population (full run
// only: wall-clock timings are not golden material). A
// DrrScheduler is loaded with T registered tenants of which 64 are active;
// ns/dispatch must stay flat as T grows 1k -> 100k, demonstrating that
// dispatch is O(active tenants), not O(total) — the point of the arena
// refactor.
//
// --bench-json=PATH writes the printed tables as JSON (BENCH_openloop.json
// in the repo root is a committed full-run snapshot).
#include "bench_util.h"

#include <chrono>

#include "core/drr_scheduler.h"
#include "core/write_cost.h"
#include "workload/fleet.h"
#include "workload/openloop.h"

using namespace gimbal;
using namespace gimbal::bench;

namespace {

// --- Part 1: latency vs offered load ---------------------------------------

struct Point {
  double kiops;
  double p99_us;
  double p999_us;
};

Point RunSweep(Scheme scheme, double offered_iops) {
  TestbedConfig cfg = MicroConfig(scheme, SsdCondition::kClean);
  Testbed bed(cfg);
  fabric::Initiator& init = bed.AddInitiator(0);
  workload::OpenLoopSpec spec;
  spec.offered_iops = offered_iops;
  spec.region_bytes = bed.device(0).capacity_bytes();
  spec.max_outstanding = 8192;
  workload::OpenLoopWorker w(bed.sim(), init, spec);
  w.Start();
  const Tick warmup = Quick() ? Milliseconds(100) : Milliseconds(300);
  const Tick window = Quick() ? Milliseconds(150) : Milliseconds(500);
  bed.sim().RunUntil(warmup);
  w.stats().Reset();
  bed.sim().RunUntil(warmup + window);
  return {static_cast<double>(w.stats().total_ios()) / ToSec(window) / 1000.0,
          static_cast<double>(w.stats().read_latency.p99()) / 1000.0,
          static_cast<double>(w.stats().read_latency.p999()) / 1000.0};
}

// --- Part 2: tenant-scale scenario suite -----------------------------------

struct ScenarioResult {
  std::string name;
  uint64_t sessions = 0;  // concurrent seats
  uint64_t connects = 0;
  uint64_t disconnects = 0;
  double kiops = 0;
  double p99_us = 0;
  double p999_us = 0;
  uint64_t slo_windows = 0;
  uint64_t slo_violated = 0;
  uint64_t dropped = 0;
  bool drained = false;
};

ScenarioResult RunScenario(const std::string& name,
                           workload::FleetSpec spec) {
  TestbedConfig cfg = MicroConfig(Scheme::kGimbal, SsdCondition::kClean);
  cfg.num_ssds = 2;
  Testbed bed(cfg);
  workload::OpenLoopFleet fleet(bed, spec);
  fleet.Start();
  const Tick measure = Quick() ? Milliseconds(60) : Milliseconds(250);
  bed.sim().RunUntil(spec.rampup + measure);
  fleet.Stop();
  // Drain to idle: retired initiators wait out their in-flight tail (under
  // a churn storm the capsule backlog alone can outlast any fixed
  // deadline), then the sweep reclaims them and the event queue empties.
  bed.sim().Run();

  ScenarioResult r;
  r.name = name;
  r.sessions = spec.sessions;
  r.connects = fleet.connects();
  r.disconnects = fleet.disconnects();
  const workload::OpenLoopFleet::Totals totals = fleet.TotalStats();
  const double secs = ToSec(spec.rampup + measure);
  r.kiops = static_cast<double>(totals.stats.total_ios()) / secs / 1000.0;
  LatencyHistogram lat = totals.stats.read_latency;
  lat.Merge(totals.stats.write_latency);
  r.p99_us = static_cast<double>(lat.p99()) / 1000.0;
  r.p999_us = static_cast<double>(lat.p999()) / 1000.0;
  fleet.slo().FinalizeWindows();
  r.slo_windows = fleet.slo().windows();
  r.slo_violated = fleet.slo().windows_violated();
  r.dropped = totals.dropped;
  if (CurrentObs()) fleet.slo().Export(CurrentObs()->metrics);

  // Self-check: everything the scenario churned must be gone — no live or
  // draining sessions, an empty target session table, zero-balance
  // checker ledgers. The testbed's checker is fail-fast, so any invariant
  // breach already aborted long before this line.
  const size_t undrained = fleet.SweepGraveyard();
  r.drained = fleet.active_sessions() == 0 && undrained == 0 &&
              bed.target().live_sessions() == 0 &&
              bed.checker().CheckDrained();
  if (!r.drained) {
    std::fprintf(stderr,
                 "error: scenario %s: active=%zu draining=%zu "
                 "target_sessions=%zu\n",
                 name.c_str(), fleet.active_sessions(), undrained,
                 bed.target().live_sessions());
  }
  return r;
}

workload::FleetSpec BaseFleetSpec() {
  workload::FleetSpec s;
  s.sessions = Quick() ? 2000 : 100000;
  s.rates.dist = workload::RateDist::kPareto;
  s.rates.mean_iops = Quick() ? 20.0 : 2.0;
  s.io_bytes = 4096;
  s.max_outstanding = 64;
  s.rampup = Quick() ? Milliseconds(10) : Milliseconds(50);
  s.seed = 1 + g_seed;
  s.slo.read_p99 = Milliseconds(1);
  s.slo.read_p999 = Milliseconds(5);
  s.slo.write_p99 = Milliseconds(2);
  s.slo.write_p999 = Milliseconds(10);
  s.slo.window = Milliseconds(10);
  return s;
}

// --- Part 3: dispatch cost vs total tenant population ----------------------

struct DispatchPoint {
  uint64_t total_tenants;
  int active;
  double ns_per_dispatch;
};

DispatchPoint MeasureDispatch(uint64_t total_tenants, int active) {
  core::GimbalParams params;
  core::WriteCostEstimator cost(params);
  core::DrrScheduler drr(params, cost);
  // Register the full population; all but `active` stay idle forever.
  for (uint64_t t = 1; t <= total_tenants; ++t) {
    drr.GetTenant(static_cast<TenantId>(t));
  }
  IoRequest req;
  req.type = IoType::kRead;
  req.length = 4096;
  uint64_t next_id = 1;
  uint64_t done = 0;
  const uint64_t kIters = 200000;
  // Warm one batch so steady-state slot state is established before timing.
  auto batch = [&]() {
    for (int a = 0; a < active; ++a) {
      req.tenant = static_cast<TenantId>(1 + a);
      req.id = next_id++;
      drr.Enqueue(req);
    }
    while (auto s = drr.Dequeue()) {
      drr.OnCompletion(s->req.tenant, s->slot_id);
      ++done;
    }
  };
  batch();
  done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (done < kIters) batch();
  const auto t1 = std::chrono::steady_clock::now();
  const double ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()) /
      static_cast<double>(done);
  return {total_tenants, active, ns};
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs_session(argc, argv);

  workload::PrintHeader(
      "Extension - open-loop suite: latency vs load, tenant-scale scenarios",
      "companion to Gimbal (SIGCOMM'21) Fig 17 / Appendix B",
      "past the ~400 KIOPS knee, vanilla open-loop latency explodes; "
      "Gimbal bounds device latency and sheds the excess to the ingress; "
      "100k-session fleets sustain connect/burst/churn storms with "
      "scheduler cost independent of total tenant count");

  Table t("Throughput and read latency vs offered load");
  t.Columns({"offered_kiops", "van_kiops", "van_p99_us", "van_p999_us",
             "gim_kiops", "gim_p99_us", "gim_p999_us"});
  std::vector<double> sweep =
      Quick() ? std::vector<double>{100e3, 380e3, 500e3}
              : std::vector<double>{50e3, 100e3, 200e3, 300e3, 380e3, 420e3,
                                    500e3};
  for (double offered : sweep) {
    Point v = RunSweep(Scheme::kVanilla, offered);
    Point g = RunSweep(Scheme::kGimbal, offered);
    t.Row({Table::Num(offered / 1000, 0), Table::Num(v.kiops),
           Table::Num(v.p99_us), Table::Num(v.p999_us), Table::Num(g.kiops),
           Table::Num(g.p99_us), Table::Num(g.p999_us)});
  }
  t.Print();

  std::vector<ScenarioResult> results;
  {
    workload::FleetSpec steady = BaseFleetSpec();
    results.push_back(RunScenario("steady", steady));

    workload::FleetSpec burst = BaseFleetSpec();
    burst.arrival.burst_multiplier = 8.0;
    burst.arrival.burst_fraction = 0.1;
    burst.arrival.burst_mean_duration = Milliseconds(2);
    results.push_back(RunScenario("burst", burst));

    workload::FleetSpec diurnal = BaseFleetSpec();
    diurnal.arrival.diurnal_period =
        Quick() ? Milliseconds(40) : Milliseconds(150);
    diurnal.arrival.diurnal_amplitude = 0.6;
    results.push_back(RunScenario("diurnal", diurnal));

    workload::FleetSpec churn = BaseFleetSpec();
    churn.session_lifetime_mean = Quick() ? Milliseconds(30) : Milliseconds(100);
    results.push_back(RunScenario("churn", churn));
  }

  Table s("Tenant-scale open-loop scenarios (Gimbal, 2 SSDs)");
  s.Columns({"scenario", "sessions", "connects", "disconnects", "kiops",
             "p99_us", "p999_us", "slo_windows", "slo_viol", "shed",
             "drained"});
  for (const ScenarioResult& r : results) {
    s.Row({r.name, std::to_string(r.sessions), std::to_string(r.connects),
           std::to_string(r.disconnects), Table::Num(r.kiops),
           Table::Num(r.p99_us), Table::Num(r.p999_us),
           std::to_string(r.slo_windows), std::to_string(r.slo_violated),
           std::to_string(r.dropped), r.drained ? "PASS" : "FAIL"});
  }
  s.Print();
  for (const ScenarioResult& r : results) {
    if (!r.drained) {
      std::fprintf(stderr, "error: scenario %s did not drain cleanly\n",
                   r.name.c_str());
      return 1;
    }
  }

  // Wall-clock timings only exist outside the deterministic golden run.
  if (!Quick()) {
    Table d("DRR dispatch cost vs registered tenant population (64 active)");
    d.Columns({"total_tenants", "active", "ns_per_dispatch"});
    for (uint64_t total : {uint64_t{1000}, uint64_t{10000},
                           uint64_t{100000}}) {
      const DispatchPoint p = MeasureDispatch(total, 64);
      d.Row({std::to_string(p.total_tenants), std::to_string(p.active),
             Table::Num(p.ns_per_dispatch)});
    }
    d.Print();
  }
  return 0;
}
