// KV chaos property sweep (docs/FAULTS.md, docs/TESTING.md): YCSB traffic
// over a replicated two-instance cluster while the fault injector runs a
// mix of media-error bursts, stall windows, SSD failures and a tenant
// crash. Every mix × seed must satisfy, with a collect-everything
// (fail_fast=false) invariant checker:
//   * no acked write is ever lost (kv.ack.lost never fires),
//   * the dirty-replica ledger balances and drains once faults heal
//     (replica count converges back to 2),
//   * the run drains clean (IO conservation, credit law, KV ledgers),
//   * the event schedule is bit-identical run to run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/invariants.h"
#include "kv/cluster.h"
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

// The five fault mixes. All injected faults heal before the drain window,
// so every mix can assert full ledger convergence.
enum class Mix {
  kMediaBothSsds,   // correlated media-error bursts on both backends
  kReplicaOutage,   // one backend dark for 60ms, then recovers
  kStallPlusMedia,  // latency stall on SSD 0 while SSD 1 throws errors
  kStaggeredKill,   // both backends fail, staggered, both recover
  kTenantCrash,     // media burst + instance-0 process crash and recovery
};
constexpr Mix kAllMixes[] = {Mix::kMediaBothSsds, Mix::kReplicaOutage,
                             Mix::kStallPlusMedia, Mix::kStaggeredKill,
                             Mix::kTenantCrash};

const char* Name(Mix m) {
  switch (m) {
    case Mix::kMediaBothSsds: return "media-both";
    case Mix::kReplicaOutage: return "replica-outage";
    case Mix::kStallPlusMedia: return "stall+media";
    case Mix::kStaggeredKill: return "staggered-kill";
    case Mix::kTenantCrash: return "tenant-crash";
  }
  return "?";
}

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
    case Mix::kStallPlusMedia:
      plan.stalls.push_back(
          {0, Milliseconds(20), Milliseconds(100), Microseconds(300)});
      plan.media_errors.push_back(
          {1, Milliseconds(40), Milliseconds(90), 0.5, Microseconds(200)});
      break;
    case Mix::kStaggeredKill:
      plan.failures.push_back({0, Milliseconds(20), Milliseconds(60)});
      plan.failures.push_back({1, Milliseconds(70), Milliseconds(110)});
      break;
    case Mix::kTenantCrash:
      plan.media_errors.push_back(
          {0, Milliseconds(30), Milliseconds(100), 0.3, Microseconds(150)});
      break;
  }
  return plan;
}

struct ChaosOutcome {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t aborted = 0;
  uint64_t dirty_recorded = 0;
  uint64_t digest = 0;
  size_t dropped = 0;
};

// One chaos run: 2 DB instances over 2 replicated backends, closed-loop
// YCSB-A clients, faults per `mix`, full drain, all convergence asserts.
ChaosOutcome RunChaos(Mix mix, uint64_t seed) {
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
  std::vector<KvCluster::Instance*> insts;
  std::vector<std::unique_ptr<YcsbClient>> clients;
  for (int i = 0; i < 2; ++i) {
    auto& inst = cluster.AddInstance();
    insts.push_back(&inst);
    inst.db->BulkLoad(4'000, 1024);
    workload::YcsbSpec spec;
    spec.workload = workload::YcsbWorkload::kA;
    spec.record_count = 4'000;
    spec.value_bytes = 1024;
    spec.seed = seed * 97 + static_cast<uint64_t>(i);
    clients.push_back(std::make_unique<YcsbClient>(cluster.sim(), *inst.db,
                                                   spec, /*concurrency=*/4));
  }

  int recovered = 0;
  if (mix == Mix::kTenantCrash) {
    // Instance 0 "process" dies mid-burst and replays its WAL.
    KvDb* db0 = insts[0]->db.get();
    cluster.sim().After(Milliseconds(60), [db0, &recovered] {
      db0->SimulateCrash();
      db0->Recover([&recovered](IoStatus st) {
        EXPECT_EQ(st, IoStatus::kOk);
        ++recovered;
      });
    });
  }

  for (auto& c : clients) c->Start();
  cluster.sim().RunUntil(Milliseconds(150));
  for (auto& c : clients) c->Stop();
  // Faults have healed; give inflight ops, WAL retries and the rebuild
  // scanners room to converge, then drain the fabric completely.
  cluster.sim().RunUntil(Milliseconds(600));
  for (auto& ini : cluster.bed().initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  cluster.sim().Run();

  std::string label = std::string(Name(mix)) + " seed=" + std::to_string(seed);
  ChaosOutcome out;
  for (size_t i = 0; i < clients.size(); ++i) {
    const auto& cs = clients[i]->stats();
    out.ops += cs.ops;
    out.failed += cs.failed;
    out.aborted += cs.aborted;
    const auto& bs = insts[i]->blobs->stats();
    out.dirty_recorded += bs.dirty_recorded;
    // Ledger balance + convergence: every dirty replica was repaired or
    // invalidated, and nothing is pending — replica count is 2 again.
    EXPECT_EQ(insts[i]->blobs->dirty_count(), 0u) << label << " inst " << i;
    EXPECT_EQ(bs.dirty_repaired + bs.dirty_dropped, bs.dirty_recorded)
        << label << " inst " << i;
  }
  EXPECT_GT(out.ops, 0u) << label;
  if (mix != Mix::kTenantCrash) {
    // No crash in the plan: nothing may resolve kAborted.
    EXPECT_EQ(out.aborted, 0u) << label;
  } else {
    EXPECT_EQ(recovered, 1) << label;
  }
  // The collect-everything checker: kv.ack.lost (an acked write with no
  // durable copy) and every other invariant must be silent, and the
  // drained state must balance.
  EXPECT_TRUE(chk.CheckDrained()) << label << ViolationReport(chk);
  EXPECT_TRUE(chk.ok()) << label << ViolationReport(chk);
  for (const auto& v : chk.violations()) {
    EXPECT_NE(v.invariant, "kv.ack.lost") << label << ": " << v.detail;
  }
  out.digest = obs.tracer.Digest();
  out.dropped = obs.tracer.dropped();
  EXPECT_EQ(out.dropped, 0u) << label;
  return out;
}

// Satellite: every fault mix × 3 seeds survives with zero lost acked
// writes and balanced ledgers.
TEST(KvChaos, SweepAllMixesAndSeeds) {
  for (Mix mix : kAllMixes) {
    uint64_t total_dirty = 0;
    for (uint64_t seed : {1u, 7u, 23u}) {
      ChaosOutcome out = RunChaos(mix, seed);
      total_dirty += out.dirty_recorded;
    }
    // The outage mixes must actually exercise the degraded-write path,
    // otherwise the sweep is vacuous.
    if (mix == Mix::kReplicaOutage || mix == Mix::kStaggeredKill) {
      EXPECT_GT(total_dirty, 0u) << Name(mix);
    }
  }
}

// Determinism contract under chaos: the same multi-SSD run replayed gives
// a bit-identical trace digest.
TEST(KvChaos, ShardedDigestIsStable) {
  for (Mix mix : {Mix::kStallPlusMedia, Mix::kTenantCrash}) {
    ChaosOutcome a = RunChaos(mix, /*seed=*/5);
    ChaosOutcome b = RunChaos(mix, /*seed=*/5);
    EXPECT_EQ(a.digest, b.digest) << Name(mix);
    EXPECT_EQ(a.ops, b.ops) << Name(mix);
  }
}

}  // namespace
}  // namespace gimbal::kv
