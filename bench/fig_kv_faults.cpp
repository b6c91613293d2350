// fig_kv_faults: end-to-end KV fault tolerance (docs/FAULTS.md).
//
// Fig 10's setup shrunk to 4 RocksDB-like instances over 3 replicated
// SSDs, YCSB-A, run twice: a fault-free control and a faulted run where
// SSD 0 throws a media-error burst, SSD 1 fails outright and recovers,
// and instance 0's process crashes and replays its WAL mid-run. The
// windowed throughput timeline shows the degraded plateau and the
// recovery; the self-checks certify the durability contract:
//
//   * no acked write was ever lost: the checker recorded no kv.ack.lost
//     (the line keeps its historical "kv.lost_writes == 0" label),
//   * every dirty replica was re-replicated (ledger drained + balanced),
//   * the crashed instance recovered and replayed its WAL,
//   * the invariant checker (collect-everything mode) stayed silent,
//   * the control run saw no failovers, no degraded writes, no faults.
//
// Fault knobs (defaults in parentheses; see docs/EXPERIMENTS.md):
//   --fault-media-p=P   media-error probability per IO in the burst (0.2)
//   --fault-seed=N      fault RNG seed (1)
#include "bench_util.h"
#include "check/invariants.h"

namespace gimbal::bench {
namespace {

constexpr int kInstances = 4;
constexpr int kSsds = 3;
constexpr int kWindows = 16;  // throughput timeline resolution

// Quick (golden) config halves every window and the keyspace; the fault
// phases and all self-checks are unchanged.
inline Tick Scaled(Tick t) { return Quick() ? t / 2 : t; }
inline Tick Warmup() { return Scaled(Milliseconds(60)); }
inline Tick Measure() { return Scaled(Milliseconds(400)); }
inline uint64_t Records() { return Quick() ? 8'000 : 20'000; }

struct RunResult : ReplicaTotals {
  double kiops = 0;
  double avg_read_us = 0;
  double inst_kiops[kInstances] = {};
  double window_kiops[kWindows] = {};
  uint64_t failed_ops = 0;
  uint64_t aborted_ops = 0;
  // Fault-handling totals across instances.
  uint64_t wal_retries = 0;
  uint64_t crashes = 0;
  uint64_t recoveries = 0;
  uint64_t replayed_records = 0;
  double rebuild_done_ms = 0;  // ledger-drained time, ms after measure start
  int recover_acks = 0;
  fault::FaultInjector::FaultCounters faults;
  bool checker_ok = false;
  size_t checker_violations = 0;
};

RunResult RunScenario(bool faulted, const FaultKnobs& k) {
  check::InvariantChecker chk(/*fail_fast=*/false);
  kv::KvClusterConfig cfg = KvConfig(Scheme::kGimbal, kSsds,
                                     SsdCondition::kClean,
                                     faulted ? "faulted" : "control");
  cfg.testbed.check = &chk;
  cfg.testbed.fault_seed = k.seed;
  const Tick t0 = Warmup();  // fault phases are relative to measure start
  if (faulted) {
    cfg.testbed.faults.media_errors.push_back(
        {0, t0 + Scaled(Milliseconds(25)), t0 + Scaled(Milliseconds(100)),
         k.media_p, Microseconds(200)});
    cfg.testbed.faults.failures.push_back(
        {1, t0 + Scaled(Milliseconds(125)), t0 + Scaled(Milliseconds(200))});
  }
  KvYcsbCell cell(cfg, workload::YcsbWorkload::kA, kInstances, Records(),
                  /*concurrency=*/8);
  sim::Simulator& sim = cell.sim();

  RunResult r;
  if (faulted) {
    // Instance 0's process dies after the SSD faults have healed and
    // replays its replicated WAL; its client rides through the kAborted
    // completions and keeps issuing.
    kv::KvDb* db0 = cell.instance(0).db.get();
    int* acks = &r.recover_acks;
    sim.After(t0 + Scaled(Milliseconds(250)), [db0, acks] {
      db0->SimulateCrash();
      db0->Recover([acks](IoStatus st) {
        if (st == IoStatus::kOk) ++*acks;
      });
    });
  }

  cell.Warmup(Warmup());

  // Measurement: step window by window so the timeline captures the
  // degraded plateau and the post-recovery ramp. `rebuild_done_ms` records
  // the sampling point where the dirty ledger last transitioned to empty
  // (i.e. re-replication completed after the final outage).
  uint64_t last_ops = 0;
  bool was_dirty = false;
  auto sample_ledger = [&] {
    if (cell.DirtyPending() > 0) {
      was_dirty = true;
    } else if (was_dirty) {
      was_dirty = false;
      r.rebuild_done_ms = ToSec(sim.now() - Warmup()) * 1000.0;
    }
  };
  const Tick win = Measure() / kWindows;
  for (int w = 0; w < kWindows; ++w) {
    cell.RunFor(win);
    const uint64_t ops = cell.Ops();
    r.window_kiops[w] =
        static_cast<double>(ops - last_ops) / ToSec(win) / 1000.0;
    last_ops = ops;
    sample_ledger();
  }

  // Drain: let WAL retries and the rebuild scanners converge. Stepping in
  // small increments pins down when the last dirty replica was
  // re-replicated.
  cell.Drain(Scaled(Milliseconds(300)), Scaled(Milliseconds(5)),
             sample_ledger);

  for (int i = 0; i < kInstances; ++i) {
    const auto& cs = cell.client(i).stats();
    r.inst_kiops[i] =
        static_cast<double>(cs.ops) / ToSec(Measure()) / 1000.0;
    r.failed_ops += cs.failed;
    r.aborted_ops += cs.aborted;
    const auto& ds = cell.instance(i).db->stats();
    r.wal_retries += ds.wal_retries;
    r.crashes += ds.crashes;
    r.recoveries += ds.recoveries;
    r.replayed_records += ds.replayed_records;
  }
  static_cast<ReplicaTotals&>(r) = cell.Replicas();
  r.kiops = static_cast<double>(cell.Ops()) / ToSec(Measure()) / 1000.0;
  r.avg_read_us = cell.Reads().mean() / 1000.0;
  r.faults = cell.cluster().bed().faults().counters();
  chk.CheckDrained();
  r.checker_ok = chk.ok();
  r.checker_violations = chk.violations().size();
  return r;
}

int Run(const FaultKnobs& knobs) {
  workload::PrintHeader(
      "fig_kv_faults - KV durability under faults (4 instances, 3 SSDs)",
      "fault-tolerance extension (docs/FAULTS.md); not a paper figure",
      "degraded throughput during the outage, full recovery after; zero "
      "lost acked writes, dirty ledger drained, WAL replayed");

  const RunResult control = RunScenario(/*faulted=*/false, knobs);
  const RunResult faulted = RunScenario(/*faulted=*/true, knobs);

  Table summary("YCSB-A aggregate (control vs faulted)");
  summary.Columns({"run", "kiops", "avg_read_us", "failed_ops",
                   "aborted_ops", "wal_retries"});
  summary.Row({"control", Table::Num(control.kiops),
               Table::Num(control.avg_read_us),
               Table::Num(double(control.failed_ops), 0),
               Table::Num(double(control.aborted_ops), 0),
               Table::Num(double(control.wal_retries), 0)});
  summary.Row({"faulted", Table::Num(faulted.kiops),
               Table::Num(faulted.avg_read_us),
               Table::Num(double(faulted.failed_ops), 0),
               Table::Num(double(faulted.aborted_ops), 0),
               Table::Num(double(faulted.wal_retries), 0)});
  summary.Print();

  Table inst("Per-instance throughput (KIOPS; instance 0 crashes+recovers)");
  inst.Columns({"instance", "control", "faulted"});
  for (int i = 0; i < kInstances; ++i) {
    inst.Row({std::to_string(i), Table::Num(control.inst_kiops[i]),
              Table::Num(faulted.inst_kiops[i])});
  }
  inst.Print();

  Table tl("Throughput timeline (KIOPS per window; media burst, SSD kill, "
           "crash)");
  tl.Columns({"window", "t_ms", "control", "faulted"});
  const double win_ms = ToSec(Measure() / kWindows) * 1000.0;
  for (int w = 0; w < kWindows; ++w) {
    tl.Row({std::to_string(w), Table::Num(win_ms * (w + 1), 1),
            Table::Num(control.window_kiops[w]),
            Table::Num(faulted.window_kiops[w])});
  }
  tl.Print();

  Table ft("Fault handling (faulted run)");
  ft.Columns({"metric", "value"});
  ft.Row({"failover_reads", Table::Num(double(faulted.failover_reads), 0)});
  ft.Row({"degraded_writes", Table::Num(double(faulted.degraded_writes), 0)});
  ft.Row({"dirty_recorded", Table::Num(double(faulted.dirty_recorded), 0)});
  ft.Row({"dirty_repaired", Table::Num(double(faulted.dirty_repaired), 0)});
  ft.Row({"dirty_dropped", Table::Num(double(faulted.dirty_dropped), 0)});
  ft.Row({"rebuild_mib", Table::Num(BytesToMiB(faulted.rebuild_bytes))});
  ft.Row({"wal_replayed_records",
          Table::Num(double(faulted.replayed_records), 0)});
  ft.Row({"rebuild_done_ms", Table::Num(faulted.rebuild_done_ms, 1)});
  ft.Row({"injected_media_errors",
          Table::Num(double(faulted.faults.media_errors), 0)});
  ft.Row({"injected_device_failed",
          Table::Num(double(faulted.faults.device_failed_ios), 0)});
  ft.Print();

  // --- Self-checks (the durability contract) ------------------------------
  const bool all = ReportChecks({
      {"no acked write lost (kv.lost_writes == 0, both runs)",
       control.lost_writes == 0 && faulted.lost_writes == 0},
      {"dirty ledger drained (0 pending) and balanced",
       faulted.dirty_pending == 0 &&
           faulted.dirty_repaired + faulted.dirty_dropped ==
               faulted.dirty_recorded},
      {"outage exercised degraded writes and re-replication",
       faulted.degraded_writes > 0 && faulted.dirty_recorded > 0 &&
           faulted.rebuild_bytes > 0},
      {"media burst exercised read failover", faulted.failover_reads > 0},
      {"instance 0 crashed, recovered and replayed its WAL",
       faulted.crashes == 1 && faulted.recoveries == 1 &&
           faulted.recover_acks == 1 && faulted.replayed_records > 0},
      {"invariant checker silent (faulted run)",
       faulted.checker_ok && faulted.checker_violations == 0},
      {"invariant checker silent (control run)",
       control.checker_ok && control.checker_violations == 0},
      {"control run saw no fault handling",
       control.failover_reads == 0 && control.degraded_writes == 0 &&
           control.dirty_recorded == 0 && control.failed_ops == 0 &&
           control.aborted_ops == 0},
  });
  return all ? 0 : 1;
}

const RegisterFigure kFigure(__FILE__, Run, FaultKnobs{});

}  // namespace
}  // namespace gimbal::bench
