// fig_rack: rack-scale multi-tenant storage disaggregation (extension).
//
// Three SmartNIC JBOF nodes (2 SSDs each) behind a shared ToR uplink host
// three replicated KV instances under YCSB-A, run twice: a fault-free
// control and a faulted run where node 1 — both its SSDs and every fabric
// message to or from it — fails whole and recovers mid-run. Replica
// placement is failure-domain aware (copies never share a node), reads
// fail over across node boundaries, and re-replication rides the
// background-priority path until every blob is node-disjoint again.
//
// The tables show rack-level per-tenant fairness and the read tail during
// the outage; the self-checks certify the rack contract:
//
//   * no acked write lost across the node failure: the checker recorded
//     no kv.ack.lost (the line keeps its historical "kv.lost_writes == 0"
//     label),
//   * the dirty ledger drained: every blob regained a node-disjoint
//     replica set before the end of the drain,
//   * the outage exercised cross-node failover and rebuild traffic,
//   * uplink byte conservation: per-node shares sum to the uplink total,
//   * the invariant checker (kv.placement.domain, rack.uplink.conservation
//     among the rest) stayed silent on both runs.
//
// --bench-json=PATH writes the tables and self-checks as JSON
// (BENCH_rack.json in CI: uplink utilization, failover tail latency,
// rebuild completion).
#include <string>

#include "bench_util.h"
#include "check/invariants.h"

namespace gimbal::bench {
namespace {

constexpr int kNodes = 3;
constexpr int kSsdsPerNode = 2;
constexpr int kSsds = kNodes * kSsdsPerNode;
constexpr int kInstances = 3;
constexpr int kWindows = 16;

inline Tick Scaled(Tick t) { return Quick() ? t / 2 : t; }
inline Tick Warmup() { return Scaled(Milliseconds(60)); }
inline Tick Measure() { return Scaled(Milliseconds(400)); }
inline uint64_t Records() { return Quick() ? 8'000 : 20'000; }
// Node 1's whole-node outage, relative to measure start.
inline Tick FailAt() { return Warmup() + Scaled(Milliseconds(80)); }
inline Tick RecoverAt() { return Warmup() + Scaled(Milliseconds(200)); }

struct RunResult : ReplicaTotals {
  double kiops = 0;
  double inst_kiops[kInstances] = {};
  double window_kiops[kWindows] = {};
  double read_p99_us = 0;         // whole measurement window
  double outage_read_p99_us = 0;  // windows overlapping the node outage
  uint64_t failed_ops = 0;
  uint64_t aborted_ops = 0;
  double rebuild_done_ms = 0;
  // Rack fabric accounting.
  uint64_t uplink_bytes = 0;
  uint64_t node_bytes[kNodes] = {};
  uint64_t node_drops = 0;
  double uplink_util = 0;  // busy time over wall time, both directions
  bool checker_ok = false;
  size_t checker_violations = 0;
};

RunResult RunScenario(bool faulted) {
  check::InvariantChecker chk(/*fail_fast=*/false);
  kv::KvClusterConfig cfg = KvConfig(Scheme::kGimbal, kSsds,
                                     SsdCondition::kClean,
                                     faulted ? "faulted" : "control");
  cfg.testbed.nodes = kNodes;
  cfg.testbed.target.cores = kSsdsPerNode;  // per node
  cfg.testbed.check = &chk;
  // Capsules to a dark node vanish at the fabric; the initiators' per-IO
  // timeout is the only recovery path, so it must be armed.
  cfg.testbed.retry.io_timeout = Milliseconds(2);
  if (faulted) {
    cfg.testbed.faults.node_failures.push_back({1, FailAt(), RecoverAt()});
  }
  KvYcsbCell cell(cfg, workload::YcsbWorkload::kA, kInstances, Records(),
                  /*concurrency=*/8);
  sim::Simulator& sim = cell.sim();

  RunResult r;
  cell.Warmup(Warmup());

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
  // Snapshot the read tail inside the outage by diffing merged histograms
  // at the window edges bracketing [FailAt, RecoverAt).
  LatencyHistogram outage_reads;
  bool outage_open = false;
  const Tick win = Measure() / kWindows;
  for (int w = 0; w < kWindows; ++w) {
    const Tick start = sim.now();
    const bool in_outage =
        faulted && start + win > FailAt() && start < RecoverAt();
    if (in_outage && !outage_open) {
      outage_open = true;
      outage_reads = cell.Reads();
    }
    sim.RunUntil(start + win);
    if (outage_open && !(faulted && sim.now() < RecoverAt())) {
      // Outage windows closed: subtract the opening snapshot.
      outage_reads = cell.Reads().Subtract(outage_reads);
      r.outage_read_p99_us = outage_reads.Percentile(0.99) / 1000.0;
      outage_open = false;
    }
    const uint64_t ops = cell.Ops();
    r.window_kiops[w] =
        static_cast<double>(ops - last_ops) / ToSec(win) / 1000.0;
    last_ops = ops;
    sample_ledger();
  }

  cell.Drain(Scaled(Milliseconds(300)), Scaled(Milliseconds(5)),
             sample_ledger);
  workload::Testbed& bed = cell.cluster().bed();
  bed.FlushObservability();

  for (int i = 0; i < kInstances; ++i) {
    const auto& cs = cell.client(i).stats();
    r.inst_kiops[i] = static_cast<double>(cs.ops) / ToSec(Measure()) / 1000.0;
    r.failed_ops += cs.failed;
    r.aborted_ops += cs.aborted;
  }
  static_cast<ReplicaTotals&>(r) = cell.Replicas();
  r.kiops = static_cast<double>(cell.Ops()) / ToSec(Measure()) / 1000.0;
  r.read_p99_us = cell.Reads().Percentile(0.99) / 1000.0;

  fabric::Network& net = bed.net();
  r.uplink_bytes = net.uplink_bytes();
  for (int n = 0; n < kNodes; ++n) r.node_bytes[n] = net.node_uplink_bytes(n);
  r.node_drops = net.node_drops();
  // Full-duplex uplink: the busy accumulator covers both directions, so
  // 2x the elapsed time is the saturation denominator.
  r.uplink_util =
      ToSec(net.uplink_busy_time()) / (2.0 * ToSec(sim.now()));

  chk.CheckDrained();
  r.checker_ok = chk.ok();
  r.checker_violations = chk.violations().size();
  return r;
}

int Run() {
  workload::PrintHeader(
      "fig_rack - rack-scale disaggregation (3 nodes x 2 SSDs, shared ToR)",
      "rack-topology extension (docs/SIMULATOR.md); not a paper figure",
      "per-tenant fairness holds rack-wide; a whole-node failure degrades "
      "but never loses acked writes; every blob regains node-disjoint "
      "replicas before the drain ends");

  const RunResult control = RunScenario(/*faulted=*/false);
  const RunResult faulted = RunScenario(/*faulted=*/true);

  Table summary("YCSB-A aggregate (control vs node-1 outage)");
  summary.Columns({"run", "kiops", "read_p99_us", "outage_p99_us",
                   "failed_ops", "aborted_ops"});
  summary.Row({"control", Table::Num(control.kiops),
               Table::Num(control.read_p99_us), "-",
               Table::Num(double(control.failed_ops), 0),
               Table::Num(double(control.aborted_ops), 0)});
  summary.Row({"faulted", Table::Num(faulted.kiops),
               Table::Num(faulted.read_p99_us),
               Table::Num(faulted.outage_read_p99_us),
               Table::Num(double(faulted.failed_ops), 0),
               Table::Num(double(faulted.aborted_ops), 0)});
  summary.Print();

  Table fair("Rack-level per-tenant fairness (KIOPS; share of aggregate)");
  fair.Columns({"tenant", "control", "ctl_share", "faulted", "flt_share"});
  for (int i = 0; i < kInstances; ++i) {
    fair.Row({std::to_string(i), Table::Num(control.inst_kiops[i]),
              Table::Num(control.kiops > 0
                             ? control.inst_kiops[i] / control.kiops
                             : 0,
                         3),
              Table::Num(faulted.inst_kiops[i]),
              Table::Num(faulted.kiops > 0
                             ? faulted.inst_kiops[i] / faulted.kiops
                             : 0,
                         3)});
  }
  fair.Print();

  Table tl("Throughput timeline (KIOPS per window; node 1 dark mid-run)");
  tl.Columns({"window", "t_ms", "control", "faulted"});
  const double win_ms = ToSec(Measure() / kWindows) * 1000.0;
  for (int w = 0; w < kWindows; ++w) {
    tl.Row({std::to_string(w), Table::Num(win_ms * (w + 1), 1),
            Table::Num(control.window_kiops[w]),
            Table::Num(faulted.window_kiops[w])});
  }
  tl.Print();

  Table rk("Rack fabric (faulted run)");
  rk.Columns({"metric", "value"});
  rk.Row({"uplink_mib", Table::Num(BytesToMiB(faulted.uplink_bytes))});
  rk.Row({"uplink_util", Table::Num(faulted.uplink_util, 4)});
  for (int n = 0; n < kNodes; ++n) {
    rk.Row({std::string("node") + std::to_string(n) + "_mib",
            Table::Num(BytesToMiB(faulted.node_bytes[n]))});
  }
  rk.Row({"node_drops", Table::Num(double(faulted.node_drops), 0)});
  rk.Row({"failover_reads", Table::Num(double(faulted.failover_reads), 0)});
  rk.Row({"degraded_writes", Table::Num(double(faulted.degraded_writes), 0)});
  rk.Row({"rebuild_mib", Table::Num(BytesToMiB(faulted.rebuild_bytes))});
  rk.Row({"rebuild_done_ms", Table::Num(faulted.rebuild_done_ms, 1)});
  rk.Print();

  auto conserved = [](const RunResult& r) {
    uint64_t sum = 0;
    for (uint64_t b : r.node_bytes) sum += b;
    return sum == r.uplink_bytes;
  };
  const bool all = ReportChecks({
      {"no acked write lost (kv.lost_writes == 0, both runs)",
       control.lost_writes == 0 && faulted.lost_writes == 0},
      {"every blob regained node-disjoint replicas (ledger drained)",
       faulted.dirty_pending == 0 &&
           faulted.dirty_repaired + faulted.dirty_dropped ==
               faulted.dirty_recorded},
      {"node outage exercised degraded writes and rebuild traffic",
       faulted.degraded_writes > 0 && faulted.dirty_recorded > 0 &&
           faulted.rebuild_bytes > 0},
      {"reads failed over across node boundaries",
       faulted.failover_reads > 0},
      {"fabric blacked the dark node out (node_drops > 0 only when faulted)",
       faulted.node_drops > 0 && control.node_drops == 0},
      {"uplink byte conservation (per-node shares sum to the total)",
       conserved(control) && conserved(faulted)},
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

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
