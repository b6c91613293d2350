// Transactional chaos sweep (docs/TESTING.md): TPC-C-lite terminals
// running multi-key transactions under strict 2PL while the fault injector
// runs media-error bursts, a replica outage, and staggered backend kills.
// Every mix × seed must satisfy, with a collect-everything
// (fail_fast=false) invariant checker:
//   * no committed transaction is ever lost (txn.commit.lost never fires),
//   * lock ledgers balance (drain.txn.locks silent, tables idle),
//   * every submitted transaction reaches a terminal state,
//   * the serializability oracle saw zero stamp mismatches,
//   * the trace digest is bit-identical run to run.
//
// The mixes are deliberately non-crash: a process crash can leave a
// durable-but-unacked WAL write whose replayed stamp the oracle never
// advanced to — a legitimate recovery artifact, not a 2PL bug. Crash
// coverage lives in kv_chaos_test.cc.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "kv/cluster.h"
#include "kv/txn.h"
#include "obs/obs.h"

namespace gimbal::kv {
namespace {

constexpr size_t kTraceLimit = 4u << 20;

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
    out += "\n  ... and " + std::to_string(chk.violations().size() - shown) +
           " more";
  }
  return out;
}

enum class Mix {
  kMediaBothSsds,  // correlated media-error bursts on both backends
  kReplicaOutage,  // one backend dark for 60ms, then recovers
  kStaggeredKill,  // both backends fail, staggered, both recover
};
constexpr Mix kAllMixes[] = {Mix::kMediaBothSsds, Mix::kReplicaOutage,
                             Mix::kStaggeredKill};
constexpr TxnProtocol kAllProtocols[] = {
    TxnProtocol::kNoWait, TxnProtocol::kWaitDie, TxnProtocol::kWoundWait};

const char* Name(Mix m) {
  switch (m) {
    case Mix::kMediaBothSsds: return "media-both";
    case Mix::kReplicaOutage: return "replica-outage";
    case Mix::kStaggeredKill: return "staggered-kill";
  }
  return "?";
}

// All faults heal before the drain window so every mix can assert full
// convergence (same windows as kv_chaos_test.cc).
fault::FaultPlan PlanFor(Mix m) {
  fault::FaultPlan plan;
  switch (m) {
    case Mix::kMediaBothSsds:
      plan.media_errors.push_back(
          {0, Milliseconds(20), Milliseconds(120), 0.25, Microseconds(150)});
      plan.media_errors.push_back(
          {1, Milliseconds(30), Milliseconds(110), 0.25, Microseconds(150)});
      break;
    case Mix::kReplicaOutage:
      plan.failures.push_back({1, Milliseconds(20), Milliseconds(80)});
      break;
    case Mix::kStaggeredKill:
      plan.failures.push_back({0, Milliseconds(20), Milliseconds(60)});
      plan.failures.push_back({1, Milliseconds(70), Milliseconds(110)});
      break;
  }
  return plan;
}

struct ChaosOutcome {
  uint64_t submitted = 0;
  uint64_t commits = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;
};

// One chaos run: 2 DB instances over 2 replicated backends, one TPC-C-lite
// coordinator per instance on a single hot warehouse, faults per `mix`,
// full drain, all convergence asserts.
ChaosOutcome RunChaos(Mix mix, TxnProtocol protocol, uint64_t seed) {
  check::InvariantChecker chk(/*fail_fast=*/false);
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);

  KvClusterConfig cfg;
  cfg.testbed.num_ssds = 2;
  cfg.testbed.scheme = workload::Scheme::kGimbal;
  cfg.testbed.ssd.logical_bytes = 128ull << 20;
  cfg.testbed.condition = workload::SsdCondition::kClean;
  cfg.testbed.faults = PlanFor(mix);
  cfg.testbed.fault_seed = seed;
  cfg.testbed.check = &chk;
  cfg.testbed.obs = &obs;
  cfg.hba.backend_bytes = 128ull << 20;
  cfg.db.memtable_bytes = 256 * 1024;  // rotate often: WAL + flush traffic
  cfg.db.sstable_target_bytes = 256 * 1024;
  cfg.db.level1_bytes = 1 << 20;

  KvCluster cluster(cfg);
  std::vector<std::unique_ptr<TxnCoordinator>> coords;
  std::vector<std::unique_ptr<TxnClient>> clients;
  for (int i = 0; i < 2; ++i) {
    auto& inst = cluster.AddInstance();
    TxnCoordinator::Config ccfg;
    ccfg.protocol = protocol;
    ccfg.max_attempts = 0;  // retry until committed; drain sets give_up
    coords.push_back(
        std::make_unique<TxnCoordinator>(cluster.sim(), *inst.db, ccfg));
    coords.back()->AttachObservability(&obs, inst.id);
    coords.back()->AttachChecker(&chk);
    workload::TpccSpec spec;
    spec.warehouses = 1;  // every terminal on the same hot rows
    spec.seed = seed * 97 + static_cast<uint64_t>(i);
    clients.push_back(std::make_unique<TxnClient>(
        cluster.sim(), *coords.back(), spec, /*concurrency=*/4));
  }

  for (auto& c : clients) c->Start();
  cluster.sim().RunUntil(Milliseconds(150));
  // Faults have healed. Stop the terminals, let in-flight transactions
  // terminate (aborted attempts stop retrying), then drain the fabric.
  for (auto& c : clients) c->Stop();
  for (auto& co : coords) co->set_give_up(true);
  cluster.sim().RunUntil(Milliseconds(600));
  for (auto& ini : cluster.bed().initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  cluster.sim().Run();

  std::string label = std::string(Name(mix)) + "/" + ToString(protocol) +
                      " seed=" + std::to_string(seed);
  ChaosOutcome out;
  for (int i = 0; i < 2; ++i) {
    const auto& cs = coords[static_cast<size_t>(i)]->stats();
    out.submitted += cs.submitted;
    out.commits += cs.commits;
    out.failed += cs.failed;
    // The oracle is the serializability witness: a lock manager that let a
    // writer slip past a held lock shows up here, chaos or not.
    EXPECT_EQ(cs.stamp_mismatches, 0u) << label << " inst " << i;
    // Strict 2PL drained: every lock came back.
    EXPECT_TRUE(coords[static_cast<size_t>(i)]->locks().idle())
        << label << " inst " << i;
    // Each held key releases exactly once; upgrades are acquires that do
    // not add a key: acquires = releases + upgrades.
    const auto& ls = coords[static_cast<size_t>(i)]->locks().stats();
    EXPECT_EQ(ls.acquires, ls.releases + ls.upgrades)
        << label << " inst " << i;
  }
  EXPECT_GT(out.commits, 0u) << label;
  EXPECT_EQ(out.submitted, out.commits + out.failed) << label;
  // The collect-everything checker: txn.commit.lost (a committed
  // transaction whose write lost its last durable copy), drain.txn.locks
  // (unbalanced lock ledger) and every other invariant must be silent.
  EXPECT_TRUE(chk.CheckDrained()) << label << ViolationReport(chk);
  EXPECT_TRUE(chk.ok()) << label << ViolationReport(chk);
  for (const auto& v : chk.violations()) {
    EXPECT_NE(v.invariant, "txn.commit.lost") << label << ": " << v.detail;
    EXPECT_NE(v.invariant, "drain.txn.locks") << label << ": " << v.detail;
  }
  out.digest = obs.tracer.Digest();
  EXPECT_EQ(obs.tracer.dropped(), 0u) << label;
  return out;
}

// Satellite: every fault mix × 3 seeds survives with zero lost committed
// transactions and balanced lock ledgers; rotating the protocol with the
// seed gives every protocol × mix pair exactly one run.
TEST(TxnChaos, SweepAllMixesAndSeeds) {
  const uint64_t seeds[] = {1, 7, 23};
  for (int m = 0; m < 3; ++m) {
    for (int s = 0; s < 3; ++s) {
      RunChaos(kAllMixes[m], kAllProtocols[(m + s) % 3], seeds[s]);
    }
  }
}

// Determinism contract under chaos: the same multi-SSD run replayed gives
// a bit-identical trace digest.
TEST(TxnChaos, ShardedDigestIsStable) {
  ChaosOutcome a = RunChaos(Mix::kMediaBothSsds, TxnProtocol::kWaitDie, 5);
  ChaosOutcome b = RunChaos(Mix::kMediaBothSsds, TxnProtocol::kWaitDie, 5);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.commits, b.commits);
}

}  // namespace
}  // namespace gimbal::kv
