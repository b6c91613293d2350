// Rack chaos sweep (docs/FAULTS.md, docs/SIMULATOR.md): YCSB and
// TPC-C-lite traffic over a replicated cluster on a 2-node rack while the
// fault injector kills and recovers *whole nodes* — every SSD on the node
// fails atomically and the ToR fabric drops every capsule to or from it.
// Every mix × seed must satisfy, with a collect-everything
// (fail_fast=false) invariant checker:
//   * no acked write is ever lost (kv.ack.lost never fires),
//   * replica placement stays node-disjoint (kv.placement.domain silent),
//   * the dirty-replica ledger balances and drains once the node heals —
//     every blob is back to a node-disjoint replica pair,
//   * uplink byte conservation holds (rack.uplink.conservation silent),
//   * the trace digest is bit-identical run to run.
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
constexpr int kNodes = 2;
constexpr int kSsdsPerNode = 2;

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

// All node failures heal before the drain window so every mix can assert
// full ledger convergence (same windows as kv_chaos_test.cc).
enum class Mix {
  kNodeOutage,      // node 1 dark for 60ms, then recovers
  kNodeAndMedia,    // node 1 dark while a surviving SSD throws media errors
  kStaggeredNodes,  // both nodes fail whole, staggered, both recover
};
constexpr Mix kAllMixes[] = {Mix::kNodeOutage, Mix::kNodeAndMedia,
                             Mix::kStaggeredNodes};

const char* Name(Mix m) {
  switch (m) {
    case Mix::kNodeOutage: return "node-outage";
    case Mix::kNodeAndMedia: return "node+media";
    case Mix::kStaggeredNodes: return "staggered-nodes";
  }
  return "?";
}

fault::FaultPlan PlanFor(Mix m) {
  fault::FaultPlan plan;
  switch (m) {
    case Mix::kNodeOutage:
      plan.node_failures.push_back({1, Milliseconds(20), Milliseconds(80)});
      break;
    case Mix::kNodeAndMedia:
      plan.node_failures.push_back({1, Milliseconds(20), Milliseconds(80)});
      plan.media_errors.push_back(
          {0, Milliseconds(30), Milliseconds(100), 0.25, Microseconds(150)});
      break;
    case Mix::kStaggeredNodes:
      plan.node_failures.push_back({0, Milliseconds(20), Milliseconds(60)});
      plan.node_failures.push_back({1, Milliseconds(70), Milliseconds(110)});
      break;
  }
  return plan;
}

KvClusterConfig RackConfig(Mix mix, uint64_t seed,
                           check::InvariantChecker* chk,
                           obs::Observability* obs) {
  KvClusterConfig cfg;
  cfg.testbed.num_ssds = kNodes * kSsdsPerNode;
  cfg.testbed.nodes = kNodes;
  cfg.testbed.target.cores = kSsdsPerNode;  // per node
  cfg.testbed.scheme = workload::Scheme::kGimbal;
  cfg.testbed.ssd.logical_bytes = 128ull << 20;
  cfg.testbed.condition = workload::SsdCondition::kClean;
  cfg.testbed.faults = PlanFor(mix);
  cfg.testbed.fault_seed = seed;
  cfg.testbed.check = chk;
  cfg.testbed.obs = obs;
  // Mandatory on a rack bed with node outages: capsules to a dark node
  // vanish at the fabric, and the per-IO timeout is the only recovery.
  cfg.testbed.retry.io_timeout = Milliseconds(2);
  cfg.hba.backend_bytes = 128ull << 20;
  cfg.db.memtable_bytes = 256 * 1024;  // rotate often: WAL + flush traffic
  cfg.db.sstable_target_bytes = 256 * 1024;
  cfg.db.level1_bytes = 1 << 20;
  return cfg;
}

// Shared convergence asserts: ledgers drained and balanced, checker silent,
// placement never collapsed onto one node, no acked write lost.
void AssertConverged(check::InvariantChecker& chk,
                     std::vector<KvCluster::Instance*>& insts,
                     const std::string& label) {
  for (size_t i = 0; i < insts.size(); ++i) {
    const auto& bs = insts[i]->blobs->stats();
    EXPECT_EQ(insts[i]->blobs->dirty_count(), 0u) << label << " inst " << i;
    EXPECT_EQ(bs.dirty_repaired + bs.dirty_dropped, bs.dirty_recorded)
        << label << " inst " << i;
  }
  EXPECT_TRUE(chk.CheckDrained()) << label << ViolationReport(chk);
  EXPECT_TRUE(chk.ok()) << label << ViolationReport(chk);
  for (const auto& v : chk.violations()) {
    EXPECT_NE(v.invariant, "kv.ack.lost") << label << ": " << v.detail;
    EXPECT_NE(v.invariant, "kv.placement.domain") << label << ": " << v.detail;
    EXPECT_NE(v.invariant, "rack.uplink.conservation")
        << label << ": " << v.detail;
  }
}

struct ChaosOutcome {
  uint64_t ops = 0;
  uint64_t dirty_recorded = 0;
  uint64_t node_drops = 0;
  uint64_t digest = 0;
};

// One mid-YCSB chaos run: 2 DB instances over the 2x2 rack, closed-loop
// YCSB-A clients, whole-node faults per `mix`, full drain.
ChaosOutcome RunYcsbChaos(Mix mix, uint64_t seed) {
  check::InvariantChecker chk(/*fail_fast=*/false);
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  KvCluster cluster(RackConfig(mix, seed, &chk, &obs));

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

  for (auto& c : clients) c->Start();
  cluster.sim().RunUntil(Milliseconds(150));
  for (auto& c : clients) c->Stop();
  // The node has healed; give timed-out IOs, WAL retries and the rebuild
  // scanners room to converge, then drain the fabric completely.
  cluster.sim().RunUntil(Milliseconds(600));
  for (auto& ini : cluster.bed().initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  cluster.sim().Run();
  cluster.bed().FlushObservability();

  std::string label =
      std::string("ycsb/") + Name(mix) + " seed=" + std::to_string(seed);
  ChaosOutcome out;
  for (size_t i = 0; i < clients.size(); ++i) {
    out.ops += clients[i]->stats().ops;
    // Node blackouts are not crashes: nothing may resolve kAborted.
    EXPECT_EQ(clients[i]->stats().aborted, 0u) << label << " inst " << i;
    out.dirty_recorded += insts[i]->blobs->stats().dirty_recorded;
  }
  EXPECT_GT(out.ops, 0u) << label;
  out.node_drops = cluster.bed().net().node_drops();
  EXPECT_GT(out.node_drops, 0u) << label;
  AssertConverged(chk, insts, label);
  out.digest = obs.tracer.Digest();
  EXPECT_EQ(obs.tracer.dropped(), 0u) << label;
  return out;
}

// One mid-transaction chaos run: TPC-C-lite terminals under strict 2PL on
// the same rack bed while a whole node dies and recovers.
ChaosOutcome RunTxnChaos(Mix mix, uint64_t seed) {
  check::InvariantChecker chk(/*fail_fast=*/false);
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  KvCluster cluster(RackConfig(mix, seed, &chk, &obs));

  std::vector<KvCluster::Instance*> insts;
  std::vector<std::unique_ptr<TxnCoordinator>> coords;
  std::vector<std::unique_ptr<TxnClient>> clients;
  for (int i = 0; i < 2; ++i) {
    auto& inst = cluster.AddInstance();
    insts.push_back(&inst);
    TxnCoordinator::Config ccfg;
    ccfg.protocol = TxnProtocol::kWaitDie;
    ccfg.max_attempts = 0;  // retry until committed; drain sets give_up
    coords.push_back(
        std::make_unique<TxnCoordinator>(cluster.sim(), *inst.db, ccfg));
    coords.back()->AttachObservability(&obs, inst.id);
    coords.back()->AttachChecker(&chk);
    workload::TpccSpec spec;
    spec.warehouses = 1;
    spec.seed = seed * 97 + static_cast<uint64_t>(i);
    clients.push_back(std::make_unique<TxnClient>(
        cluster.sim(), *coords.back(), spec, /*concurrency=*/4));
  }

  for (auto& c : clients) c->Start();
  cluster.sim().RunUntil(Milliseconds(150));
  for (auto& c : clients) c->Stop();
  for (auto& co : coords) co->set_give_up(true);
  cluster.sim().RunUntil(Milliseconds(600));
  for (auto& ini : cluster.bed().initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  cluster.sim().Run();
  cluster.bed().FlushObservability();

  std::string label =
      std::string("txn/") + Name(mix) + " seed=" + std::to_string(seed);
  ChaosOutcome out;
  uint64_t commits = 0;
  for (int i = 0; i < 2; ++i) {
    const auto& cs = coords[static_cast<size_t>(i)]->stats();
    out.ops += cs.submitted;
    commits += cs.commits;
    EXPECT_EQ(cs.stamp_mismatches, 0u) << label << " inst " << i;
    EXPECT_TRUE(coords[static_cast<size_t>(i)]->locks().idle())
        << label << " inst " << i;
    const auto& ls = coords[static_cast<size_t>(i)]->locks().stats();
    EXPECT_EQ(ls.acquires, ls.releases + ls.upgrades)
        << label << " inst " << i;
  }
  EXPECT_GT(commits, 0u) << label;
  for (const auto& v : chk.violations()) {
    EXPECT_NE(v.invariant, "txn.commit.lost") << label << ": " << v.detail;
  }
  AssertConverged(chk, insts, label);
  out.digest = obs.tracer.Digest();
  EXPECT_EQ(obs.tracer.dropped(), 0u) << label;
  return out;
}

// Satellite: every node-failure mix × 3 seeds survives mid-YCSB with zero
// lost acked writes, node-disjoint placement and drained ledgers.
TEST(RackChaos, YcsbSweepAllMixesAndSeeds) {
  for (Mix mix : kAllMixes) {
    uint64_t total_dirty = 0;
    for (uint64_t seed : {1u, 7u, 23u}) {
      ChaosOutcome out = RunYcsbChaos(mix, seed);
      total_dirty += out.dirty_recorded;
    }
    // A whole-node outage must exercise the degraded-write path, or the
    // sweep is vacuous.
    EXPECT_GT(total_dirty, 0u) << Name(mix);
  }
}

// Mid-transaction: strict 2PL rides through whole-node failures with zero
// lost committed transactions and balanced lock ledgers.
TEST(RackChaos, TxnSweepNodeOutages) {
  for (Mix mix : {Mix::kNodeOutage, Mix::kStaggeredNodes}) {
    for (uint64_t seed : {1u, 7u}) {
      RunTxnChaos(mix, seed);
    }
  }
}

// Determinism contract under whole-node chaos: the same rack run
// replayed gives a bit-identical trace digest.
TEST(RackChaos, ShardedDigestIsStable) {
  ChaosOutcome a = RunYcsbChaos(Mix::kNodeAndMedia, /*seed=*/5);
  ChaosOutcome b = RunYcsbChaos(Mix::kNodeAndMedia, /*seed=*/5);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.node_drops, b.node_drops);
}

}  // namespace
}  // namespace gimbal::kv
