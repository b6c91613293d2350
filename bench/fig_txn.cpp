// fig_txn: transactional multi-key KV workload (docs/WORKLOADS.md).
//
// TPC-C-lite (NewOrder/Payment mixes, workload/tpcc.h) through the strict
// 2PL transaction layer (kv/txn.h) over 2 RocksDB-like instances on 3
// replicated SSDs. The matrix sweeps the three conflict protocols
// (NO_WAIT, WAIT_DIE, WOUND_WAIT) against low contention (8 warehouses)
// and high contention (1 warehouse, every terminal hammering the same
// warehouse/district rows), plus a faulted WAIT_DIE/high-contention run
// where SSD 0 throws a media-error burst and SSD 1 fails and recovers
// mid-run — commit acks ride the WAL group-commit path, so faults stretch
// commit latency but can never lose a committed transaction.
//
// Self-checks (the transactional contract, docs/TESTING.md):
//   * the invariant checker (collect-everything mode) stayed silent in
//     every cell — covers txn.commit.lost == 0, balanced lock ledgers
//     (drain.txn.locks), two-phase discipline, wound-order legality,
//   * the serializability oracle saw zero stamp mismatches anywhere,
//   * every submitted transaction reached a terminal state and every lock
//     table drained to idle,
//   * NO_WAIT never queued a waiter; wounds happened only under
//     WOUND_WAIT; high contention actually exercised waits/aborts,
//   * the faulted run committed transactions through the fault window.
//
// Fault knobs (defaults in parentheses; see EXPERIMENTS.md):
//   --fault-media-p=P   media-error probability per IO in the burst (0.2)
//   --fault-seed=N      fault RNG seed (1)
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "check/invariants.h"
#include "kv/txn.h"
#include "obs/schema.h"

namespace gimbal::bench {
namespace {

using kv::TxnClient;
using kv::TxnCoordinator;
using kv::TxnProtocol;

constexpr int kInstances = 2;
constexpr int kSsds = 3;
constexpr int kTerminals = 8;  // closed-loop terminals per instance
constexpr int kLowWarehouses = 8;
constexpr int kHighWarehouses = 1;

inline Tick Scaled(Tick t) { return Quick() ? t / 2 : t; }
inline Tick Warmup() { return Scaled(Milliseconds(30)); }
inline Tick Measure() { return Scaled(Milliseconds(200)); }

struct RunConfig {
  TxnProtocol protocol = TxnProtocol::kWaitDie;
  int warehouses = kLowWarehouses;
  bool faulted = false;
  std::string label;  // unique metrics run label, e.g. "wait_die:hi"
};

struct RunResult {
  // Coordinator totals across instances (whole run, warmup included).
  uint64_t submitted = 0;
  uint64_t commits = 0;
  uint64_t attempt_aborts = 0;
  uint64_t retries = 0;
  uint64_t failed = 0;
  uint64_t stamp_mismatches = 0;
  // Lock-manager totals.
  uint64_t waits = 0;
  uint64_t wounds = 0;
  uint64_t upgrades = 0;
  uint64_t lock_aborts = 0;
  uint64_t max_queue_depth = 0;
  bool locks_idle = false;
  // Client view of the measurement window.
  uint64_t committed = 0;
  uint64_t new_orders = 0;
  uint64_t payments = 0;
  double ktps = 0;  // committed txns/s (thousands)
  double commit_p50_us = 0;
  double commit_p99_us = 0;
  double attempts_per_txn = 0;
  // Fault handling (faulted run only).
  uint64_t failover_reads = 0;
  uint64_t degraded_writes = 0;
  uint64_t wal_retries = 0;
  fault::FaultInjector::FaultCounters faults;
  bool checker_ok = false;
  size_t checker_violations = 0;
};

RunResult RunCell(const RunConfig& rc, const FaultKnobs& k) {
  check::InvariantChecker chk(/*fail_fast=*/false);
  kv::KvClusterConfig cfg =
      KvConfig(Scheme::kGimbal, kSsds, SsdCondition::kClean, rc.label);
  cfg.testbed.check = &chk;
  cfg.testbed.fault_seed = k.seed;
  // Small memtable: commit batches flush to SSTables during the run, so
  // locked reads pay device IO and the fault window reaches the read path.
  cfg.db.memtable_bytes = 64ull << 10;
  const Tick t0 = Warmup();
  if (rc.faulted) {
    cfg.testbed.faults.media_errors.push_back(
        {0, t0 + Scaled(Milliseconds(20)), t0 + Scaled(Milliseconds(90)),
         k.media_p, Microseconds(200)});
    cfg.testbed.faults.failures.push_back(
        {1, t0 + Scaled(Milliseconds(100)), t0 + Scaled(Milliseconds(160))});
  }
  kv::KvCluster cluster(cfg);

  std::vector<std::unique_ptr<TxnCoordinator>> coords;
  std::vector<std::unique_ptr<TxnClient>> clients;
  for (int i = 0; i < kInstances; ++i) {
    auto& inst = cluster.AddInstance();
    TxnCoordinator::Config ccfg;
    ccfg.protocol = rc.protocol;
    ccfg.max_attempts = 0;  // retry until committed; drain sets give_up
    coords.push_back(
        std::make_unique<TxnCoordinator>(cluster.sim(), *inst.db, ccfg));
    coords.back()->Attach({CurrentObs(), &chk, inst.id});
    workload::TpccSpec spec;
    spec.warehouses = rc.warehouses;
    spec.seed = static_cast<uint64_t>(i) + 1 + g_seed;
    clients.push_back(std::make_unique<TxnClient>(
        cluster.sim(), *coords.back(), spec, kTerminals));
  }

  for (auto& c : clients) c->Start();
  cluster.sim().RunUntil(Warmup());
  for (auto& c : clients) c->stats().Reset();
  if (auto* obs = CurrentObs()) obs->metrics.ResetRun(cfg.testbed.run_label);
  cluster.sim().RunUntil(Warmup() + Measure());

  // Drain: stop the terminals, let in-flight transactions finish (aborted
  // attempts now terminate instead of retrying), then quiesce the fabric.
  for (auto& c : clients) c->Stop();
  for (auto& co : coords) co->set_give_up(true);
  cluster.sim().RunUntil(cluster.sim().now() + Scaled(Milliseconds(100)));
  for (auto& ini : cluster.bed().initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  cluster.sim().Run();

  RunResult r;
  r.locks_idle = true;
  LatencyHistogram commit_lat;
  for (int i = 0; i < kInstances; ++i) {
    const auto& cs = coords[static_cast<size_t>(i)]->stats();
    r.submitted += cs.submitted;
    r.commits += cs.commits;
    r.attempt_aborts += cs.attempt_aborts;
    r.retries += cs.retries;
    r.failed += cs.failed;
    r.stamp_mismatches += cs.stamp_mismatches;
    const auto& ls = coords[static_cast<size_t>(i)]->locks().stats();
    r.waits += ls.waits;
    r.wounds += ls.wounds;
    r.upgrades += ls.upgrades;
    r.lock_aborts += ls.aborts;
    r.max_queue_depth = std::max(r.max_queue_depth, ls.max_queue_depth);
    r.locks_idle = r.locks_idle && coords[static_cast<size_t>(i)]->locks().idle();
    const auto& ts = clients[static_cast<size_t>(i)]->stats();
    r.committed += ts.committed;
    r.new_orders += ts.new_orders;
    r.payments += ts.payments;
    commit_lat.Merge(ts.commit_latency);
    const auto& inst = *cluster.instances()[static_cast<size_t>(i)];
    const auto& bs = inst.blobs->stats();
    r.failover_reads += bs.failover_reads;
    r.degraded_writes += bs.degraded_writes;
    r.wal_retries += inst.db->stats().wal_retries;
  }
  r.ktps = static_cast<double>(r.committed) / ToSec(Measure()) / 1000.0;
  r.commit_p50_us = static_cast<double>(commit_lat.p50()) / 1000.0;
  r.commit_p99_us = static_cast<double>(commit_lat.p99()) / 1000.0;
  r.attempts_per_txn =
      r.submitted == 0
          ? 0
          : static_cast<double>(r.commits + r.attempt_aborts) /
                static_cast<double>(r.submitted);
  r.faults = cluster.bed().faults().counters();
  chk.CheckDrained();
  r.checker_ok = chk.ok();
  r.checker_violations = chk.violations().size();
  return r;
}

int Run(const FaultKnobs& knobs) {
  workload::PrintHeader(
      "fig_txn - TPC-C-lite transactions under 2PL (2 instances, 3 SSDs)",
      "transactional extension (docs/WORKLOADS.md); not a paper figure",
      "protocol x contention sweep; zero lost committed transactions, "
      "balanced lock ledgers, serializability oracle clean");

  const TxnProtocol kProtocols[] = {TxnProtocol::kNoWait,
                                    TxnProtocol::kWaitDie,
                                    TxnProtocol::kWoundWait};
  // results[p][0] = low contention, [p][1] = high contention.
  RunResult results[3][2];
  for (int p = 0; p < 3; ++p) {
    for (int c = 0; c < 2; ++c) {
      RunConfig rc;
      rc.protocol = kProtocols[p];
      rc.warehouses = c == 0 ? kLowWarehouses : kHighWarehouses;
      rc.label = std::string(ToString(rc.protocol)) + (c == 0 ? ":lo" : ":hi");
      results[p][c] = RunCell(rc, knobs);
    }
  }
  RunConfig frc;
  frc.protocol = TxnProtocol::kWaitDie;
  frc.warehouses = kHighWarehouses;
  frc.faulted = true;
  frc.label = "wait_die:hi:faulted";
  const RunResult faulted = RunCell(frc, knobs);
  const RunResult& fcontrol = results[1][1];  // wait_die:hi

  Table sweep("Protocol x contention (TPC-C-lite, committed transactions)");
  sweep.Columns({"protocol", "contention", "ktps", "p50_us", "p99_us",
                 "att/txn", "waits", "wounds", "aborts", "retries"});
  for (int p = 0; p < 3; ++p) {
    for (int c = 0; c < 2; ++c) {
      const RunResult& r = results[p][c];
      sweep.Row({kv::ToString(kProtocols[p]), c == 0 ? "low" : "high",
                 Table::Num(r.ktps), Table::Num(r.commit_p50_us, 1),
                 Table::Num(r.commit_p99_us, 1),
                 Table::Num(r.attempts_per_txn, 2),
                 Table::Num(double(r.waits), 0),
                 Table::Num(double(r.wounds), 0),
                 Table::Num(double(r.attempt_aborts), 0),
                 Table::Num(double(r.retries), 0)});
    }
  }
  sweep.Print();

  Table mix("Transaction mix (committed, per cell)");
  mix.Columns({"protocol", "contention", "new_orders", "payments",
               "upgrades", "max_queue"});
  for (int p = 0; p < 3; ++p) {
    for (int c = 0; c < 2; ++c) {
      const RunResult& r = results[p][c];
      mix.Row({kv::ToString(kProtocols[p]), c == 0 ? "low" : "high",
               Table::Num(double(r.new_orders), 0),
               Table::Num(double(r.payments), 0),
               Table::Num(double(r.upgrades), 0),
               Table::Num(double(r.max_queue_depth), 0)});
    }
  }
  mix.Print();

  Table ft("WAIT_DIE high contention: control vs faulted");
  ft.Columns({"run", "ktps", "p99_us", "aborts", "failover_reads",
              "degraded_writes", "wal_retries"});
  ft.Row({"control", Table::Num(fcontrol.ktps),
          Table::Num(fcontrol.commit_p99_us, 1),
          Table::Num(double(fcontrol.attempt_aborts), 0),
          Table::Num(double(fcontrol.failover_reads), 0),
          Table::Num(double(fcontrol.degraded_writes), 0),
          Table::Num(double(fcontrol.wal_retries), 0)});
  ft.Row({"faulted", Table::Num(faulted.ktps),
          Table::Num(faulted.commit_p99_us, 1),
          Table::Num(double(faulted.attempt_aborts), 0),
          Table::Num(double(faulted.failover_reads), 0),
          Table::Num(double(faulted.degraded_writes), 0),
          Table::Num(double(faulted.wal_retries), 0)});
  ft.Print();

  // --- Self-checks (the transactional contract) ---------------------------
  auto all_cells = [&](auto fn) {
    bool ok = fn(faulted);
    for (int p = 0; p < 3; ++p) {
      for (int c = 0; c < 2; ++c) ok = ok && fn(results[p][c]);
    }
    return ok;
  };
  const bool all = ReportChecks({
      {"invariant checker silent in every cell (incl. drain)",
       all_cells([](const RunResult& r) {
         return r.checker_ok && r.checker_violations == 0;
       })},
      {"serializability oracle clean (0 stamp mismatches)",
       all_cells([](const RunResult& r) { return r.stamp_mismatches == 0; })},
      {"every transaction terminal, every lock table idle",
       all_cells([](const RunResult& r) {
         return r.submitted == r.commits + r.failed && r.locks_idle;
       })},
      {"every cell committed transactions",
       all_cells([](const RunResult& r) { return r.commits > 0; })},
      {"S->X upgrades exercised in every cell",
       all_cells([](const RunResult& r) { return r.upgrades > 0; })},
      {"NO_WAIT never queued a waiter",
       results[0][0].waits == 0 && results[0][1].waits == 0},
      {"wounds only under WOUND_WAIT",
       results[0][0].wounds == 0 && results[0][1].wounds == 0 &&
           results[1][0].wounds == 0 && results[1][1].wounds == 0 &&
           faulted.wounds == 0 && results[2][1].wounds > 0},
      {"high contention exercised conflicts (aborts or waits)",
       results[0][1].lock_aborts > 0 && results[1][1].waits > 0 &&
           results[2][1].waits > 0},
      {"faulted run: faults injected and handled through commits",
       faulted.faults.media_errors + faulted.faults.device_failed_ios > 0 &&
           faulted.failover_reads + faulted.degraded_writes +
                   faulted.wal_retries >
               0 &&
           faulted.commits > 0},
  });
  return all ? 0 : 1;
}

const RegisterFigure kFigure(__FILE__, Run, FaultKnobs{});

}  // namespace
}  // namespace gimbal::bench
