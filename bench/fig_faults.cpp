// fig_faults: SLO isolation under injected faults (docs/FAULTS.md).
//
// Four tenants on a two-SSD Gimbal JBOF: A and B share the healthy SSD 0;
// C and D share SSD 1, which suffers a latency stall, a media-error burst,
// a brief fabric link flap, a full failure and a recovery, while D crashes
// abruptly mid-run (no disconnect capsule). The control run repeats the
// identical setup with no faults.
//
// Expected shape: A and B stay within 10% of their no-fault bandwidth —
// faulted completions are kept out of the rate controller's EWMAs and a
// failed SSD drains fast instead of clogging its pipeline — while every IO
// the faulted tenants admitted reaches exactly one terminal status (the
// per-tenant balance initiator.submitted == client.completed +
// client.failed closes after the drain; nothing is stuck or leaked).
//
// Fault knobs (defaults in parentheses; see docs/EXPERIMENTS.md):
//   --fault-media-p=P     media-error probability per IO in the burst (0.05)
//   --fault-stall-ms=N    extra device latency during the stall (2)
//   --fault-link-drop=P   message drop probability during the flap (0.01)
//   --fault-seed=N        fault RNG seed (1)
#include "bench_util.h"
#include "fault/fault.h"
#include "obs/schema.h"

namespace gimbal::bench {
namespace {

// Quick (golden) config halves the measurement window and every fault
// window with it; the isolation and balance self-checks still hold.
inline Tick Window() { return Quick() ? Milliseconds(250) : Milliseconds(500); }
inline Tick Scaled(Tick t) { return Quick() ? t / 2 : t; }

constexpr int kTenants = 4;
const char* kNames[kTenants] = {"A (ssd0)", "B (ssd0)", "C (ssd1)",
                                "D (ssd1, crash)"};

struct TenantResult {
  double mbps = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t timeouts = 0;
  uint64_t late = 0;
  uint64_t submitted = 0;
  uint64_t terminal = 0;  // completed + failed, from the obs counters
};

struct RunResult {
  TenantResult tenant[kTenants];
  fault::FaultInjector::FaultCounters faults;
  uint64_t sessions_reaped = 0;
  size_t leftover_tenants = 0;  // scheduler state after the drain
};

RunResult RunScenario(obs::Observability& obs, bool faulted,
                      const FaultKnobs& k) {
  TestbedConfig cfg = MicroConfig(Scheme::kGimbal, SsdCondition::kClean);
  cfg.obs = &obs;
  cfg.run_label = faulted ? "faulted" : "nofault";
  cfg.num_ssds = 2;
  cfg.fault_seed = k.seed;
  // Client-side fault tolerance + target-side crash detection are active
  // in both runs so the control differs only in the faults themselves.
  cfg.retry.io_timeout = Milliseconds(2);
  cfg.retry.keepalive_interval = Milliseconds(1);
  cfg.target.session_timeout = Milliseconds(5);
  if (faulted) {
    cfg.faults.stalls.push_back(
        {1, Scaled(Milliseconds(100)), Scaled(Milliseconds(150)),
         static_cast<Tick>(*k.stall_ms * 1e6)});
    cfg.faults.media_errors.push_back(
        {1, Scaled(Milliseconds(180)), Scaled(Milliseconds(230)), k.media_p,
         Microseconds(500)});
    if (*k.link_drop > 0) {
      cfg.faults.link_flaps.push_back(
          {Scaled(Milliseconds(190)), Scaled(Milliseconds(210)), *k.link_drop,
           Microseconds(20)});
    }
    cfg.faults.failures.push_back(
        {1, Scaled(Milliseconds(300)), Scaled(Milliseconds(350))});
  }
  Testbed bed(cfg);
  for (int i = 0; i < kTenants; ++i) {
    FioSpec spec;
    spec.io_bytes = 4096;
    spec.queue_depth = 16;
    spec.seed = 10 + static_cast<uint64_t>(i) + g_seed;
    bed.AddWorker(spec, i < 2 ? 0 : 1);
  }
  if (faulted) {
    fabric::Initiator& d = bed.workers()[3]->initiator();
    bed.faults().ScheduleTenantCrash(Scaled(Milliseconds(250)), d.tenant(),
                                     [&d]() { d.Crash(); });
  }
  for (auto& w : bed.workers()) w->Start();
  bed.sim().RunUntil(Window());
  for (auto& w : bed.workers()) w->Stop();
  // Quiesce: graceful disconnects stop the keepalives, the session reaper
  // self-terminates, and every outstanding IO reaches a terminal status.
  for (auto& ini : bed.initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  bed.sim().Run();

  RunResult r;
  for (int i = 0; i < kTenants; ++i) {
    FioWorker& w = *bed.workers()[i];
    fabric::Initiator& ini = w.initiator();
    TenantResult& t = r.tenant[i];
    t.mbps = BytesToMiB(w.stats().total_bytes()) / ToSec(Window());
    t.failed = w.stats().failed_ios;
    t.retries = ini.retries();
    t.timeouts = ini.timeouts();
    t.late = ini.late_completions();
    const obs::Labels l = obs::Labels::TenantSsd(
        static_cast<int32_t>(ini.tenant()), ini.pipeline());
    t.submitted =
        obs.metrics.GetCounter(obs::schema::kInitiatorSubmitted, l).value();
    t.terminal =
        obs.metrics.GetCounter(obs::schema::kClientCompleted, l).value() +
        obs.metrics.GetCounter(obs::schema::kClientFailed, l).value();
  }
  r.faults = bed.faults().counters();
  r.sessions_reaped = bed.target().sessions_reaped();
  for (int s = 0; s < cfg.num_ssds; ++s) {
    r.leftover_tenants += bed.gimbal_switch(s)->scheduler().tenant_count();
  }
  return r;
}

int Run(const FaultKnobs& knobs) {
  workload::PrintHeader(
      "fig_faults - SLO isolation under SSD/fabric faults (Gimbal, 2 SSDs)",
      "fault-injection extension (docs/FAULTS.md); not a paper figure",
      "healthy-SSD tenants within 10% of no-fault bandwidth; every "
      "admitted IO of the faulted tenants reaches a terminal status");

  // One registry for both runs; run labels keep the series apart.
  obs::Observability local_obs;
  obs::Observability& obs =
      CurrentObs() ? *CurrentObs() : local_obs;

  const RunResult control = RunScenario(obs, /*faulted=*/false, knobs);
  const RunResult faulted = RunScenario(obs, /*faulted=*/true, knobs);

  Table t("Per-tenant bandwidth and fault handling (4KB rand read, QD16)");
  t.Columns({"tenant", "nofault_mbps", "fault_mbps", "delta_pct", "failed",
             "retries", "timeouts", "late", "balance"});
  bool balanced = true;
  bool isolated = true;
  for (int i = 0; i < kTenants; ++i) {
    const TenantResult& c = control.tenant[i];
    const TenantResult& f = faulted.tenant[i];
    const double delta =
        c.mbps > 0 ? (f.mbps - c.mbps) / c.mbps * 100.0 : 0.0;
    const bool bal = f.submitted == f.terminal && c.submitted == c.terminal;
    balanced = balanced && bal;
    if (i < 2 && delta < -10.0) isolated = false;
    t.Row({kNames[i], Table::Num(c.mbps), Table::Num(f.mbps),
           Table::Num(delta, 1), Table::Num(double(f.failed), 0),
           Table::Num(double(f.retries), 0), Table::Num(double(f.timeouts), 0),
           Table::Num(double(f.late), 0), bal ? "ok" : "LEAK"});
  }
  t.Print();

  std::printf(
      "\nInjected: media_errors=%llu device_failed=%llu stalled=%llu "
      "link_dropped=%llu link_delayed=%llu crashes=%llu\n",
      static_cast<unsigned long long>(faulted.faults.media_errors),
      static_cast<unsigned long long>(faulted.faults.device_failed_ios),
      static_cast<unsigned long long>(faulted.faults.stalled_ios),
      static_cast<unsigned long long>(faulted.faults.link_dropped),
      static_cast<unsigned long long>(faulted.faults.link_delayed),
      static_cast<unsigned long long>(faulted.faults.crashes));
  std::printf("Crashed sessions reaped by keepalive timeout: %llu\n",
              static_cast<unsigned long long>(faulted.sessions_reaped));
  std::printf("Scheduler tenant state left after drain: %zu\n",
              faulted.leftover_tenants);
  const bool all = ReportChecks({
      {"Healthy-SSD isolation (A/B within 10%)", isolated},
      {"No IO lost (submitted == completed+failed, all tenants)", balanced},
  });
  return all ? 0 : 1;
}

const RegisterFigure kFigure(__FILE__, Run,
                             FaultKnobs{/*media_p=*/0.05, /*seed=*/1,
                                        /*stall_ms=*/2.0,
                                        /*link_drop=*/0.01});

}  // namespace
}  // namespace gimbal::bench
