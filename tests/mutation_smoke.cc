// Mutation smoke test (docs/TESTING.md): proves the invariant checker
// actually catches bugs, not just that clean runs stay quiet.
//
// Built with -DGIMBAL_MUTATIONS=1, which compiles nine seeded off-by-one
// bugs into the scheduler/flow-control/locking/placement hot paths behind
// a runtime selector (core/params.h). Each invocation activates one
// mutation, runs a small testbed with a fail_fast=false checker attached,
// and exits 0 iff the checker flagged the invariant family that mutation
// breaks:
//
//   none           no mutation; the run must be violation-free and the
//                  drain balance must close (guards against a checker that
//                  "catches" everything by crying wolf)
//   credit_leak    client issues with credit_total+1 -> client.credit.*
//   drr_skew       even tenants get 4x quantum grants  -> drr.*
//   bucket_overrun consume charges bytes/2             -> bucket.*
//   slot_overrun   TryOpenSlot allows allotted+1       -> slot.*
//   health_skip    transition validation bypassed      -> health.*
//   lock_leak      2PL ReleaseAll forgets a held lock  -> drain.txn.*
//   phantom_unlock ReleaseAll reports a lock twice     -> txn.lock.phantom
//   placement_collapse HBA excludes backend, not node  -> kv.placement.*
//   uplink_leak    node 0 skips uplink accounting      -> rack.uplink.*
//
// ctest runs all ten (tests/CMakeLists.txt).
#include <cstdio>
#include <cstring>
#include <string>

#include "check/invariants.h"
#include "core/drr_scheduler.h"
#include "core/params.h"
#include "core/write_cost.h"
#include "kv/cluster.h"
#include "kv/txn.h"
#include "workload/fio.h"
#include "workload/runner.h"

using namespace gimbal;
using workload::Scheme;
using workload::Testbed;
using workload::TestbedConfig;

namespace {

// Two-tenant 4KiB mix on one Gimbal SSD: exercises credits, DRR rounds,
// the token bucket and the latency monitor in ~120ms of simulated time.
void RunGimbalMix(check::InvariantChecker* chk) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.ssd.logical_bytes = 256ull << 20;
  cfg.check = chk;
  Testbed bed(cfg);
  for (int i = 0; i < 2; ++i) {
    workload::FioSpec spec;
    spec.io_bytes = 4096;
    spec.queue_depth = 16;
    spec.read_ratio = 0.7;
    spec.seed = 10 + static_cast<uint64_t>(i);
    bed.AddWorker(spec);
  }
  bed.Run(Milliseconds(20), Milliseconds(100));
}

// Drive the DRR scheduler directly: 32 slot-filling 128KiB reads from one
// tenant, dequeued without ever completing. Past the allotment the
// (mutated) scheduler opens one slot too many. In the full testbed the
// congestion control keeps occupancy below the cap on healthy devices, so
// the cap must be provoked at the unit level to be checkable at all.
void RunSlotPressure(check::InvariantChecker* chk) {
  core::GimbalParams params;
  core::WriteCostEstimator cost(params);
  core::DrrScheduler sched(params, cost);
  sched.Attach({.chk = chk, .label = 0});
  for (uint64_t i = 0; i < 32; ++i) {
    IoRequest req;
    req.id = i + 1;
    req.tenant = 1;
    req.type = IoType::kRead;
    req.offset = i * 128 * 1024;
    req.length = 128 * 1024;
    sched.Enqueue(req);
  }
  while (sched.Dequeue()) {
  }
}

// Stall window [10,30)ms on an SSD that hard-fails at 20ms with no
// recovery: at stall end the (mutated) fault layer drives an illegal
// failed->healthy transition.
void RunHealthConflict(check::InvariantChecker* chk) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.ssd.logical_bytes = 256ull << 20;
  cfg.check = chk;
  cfg.faults.stalls.push_back(
      {0, Milliseconds(10), Milliseconds(30), Milliseconds(1)});
  cfg.faults.failures.push_back({0, Milliseconds(20), /*recover_at=*/0});
  Testbed bed(cfg);
  bed.sim().RunUntil(Milliseconds(40));
}

// Drive the 2PL lock manager directly through one two-key transaction and
// then close the books: the (mutated) ReleaseAll forgets the last held
// key, so the checker's acquired/released ledger cannot balance at drain.
void RunLockLeak(check::InvariantChecker* chk) {
  kv::LockManager lm(kv::TxnProtocol::kWaitDie);
  lm.Attach({.chk = chk, .label = /*instance*/ 0}, /*sim=*/nullptr);
  lm.Begin(1, 1, nullptr);
  lm.Acquire(1, 100, kv::LockMode::kExclusive, nullptr);
  lm.Acquire(1, 101, kv::LockMode::kExclusive, nullptr);
  lm.ReleaseAll(1);
  chk->CheckDrained();
}

// Single-key transaction whose (mutated) ReleaseAll reports the key
// released twice — the second release is of a lock no longer held.
void RunPhantomUnlock(check::InvariantChecker* chk) {
  kv::LockManager lm(kv::TxnProtocol::kWaitDie);
  lm.Attach({.chk = chk, .label = /*instance*/ 0}, /*sim=*/nullptr);
  lm.Begin(1, 1, nullptr);
  lm.Acquire(1, 100, kv::LockMode::kExclusive, nullptr);
  lm.ReleaseAll(1);
}

// Fault-free two-node rack cluster: every replicated write (WAL chunks,
// memtable flushes) reports its (primary, shadow) nodes to the checker.
// The (mutated) allocator excludes only the exact primary backend instead
// of its whole node, so ties collapse onto the primary's node sibling and
// the very first replicated write trips kv.placement.domain.
void RunRackPlacement(check::InvariantChecker* chk) {
  kv::KvClusterConfig cfg;
  cfg.testbed.scheme = Scheme::kGimbal;
  cfg.testbed.num_ssds = 4;
  cfg.testbed.nodes = 2;
  cfg.testbed.target.cores = 2;
  cfg.testbed.ssd.logical_bytes = 128ull << 20;
  cfg.testbed.check = chk;
  cfg.hba.backend_bytes = 128ull << 20;
  cfg.db.memtable_bytes = 64 * 1024;
  kv::KvCluster cluster(cfg);
  auto& inst = cluster.AddInstance();
  for (uint64_t k = 0; k < 32; ++k) {
    inst.db->Put(k, 1024, /*stamp=*/0, [](IoStatus) {});
  }
  cluster.sim().RunUntil(Milliseconds(50));
}

// Two fio workers on a two-node rack: the (mutated) fabric skips the
// shared-uplink byte accounting for traffic from node 0, so the first
// node-0 message breaks the per-node vs. total conservation sum.
void RunRackMix(check::InvariantChecker* chk) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.num_ssds = 4;
  cfg.nodes = 2;
  cfg.target.cores = 2;
  cfg.ssd.logical_bytes = 256ull << 20;
  cfg.check = chk;
  Testbed bed(cfg);
  for (int i = 0; i < 2; ++i) {
    workload::FioSpec spec;
    spec.io_bytes = 4096;
    spec.queue_depth = 8;
    spec.read_ratio = 0.7;
    spec.seed = 10 + static_cast<uint64_t>(i);
    bed.AddWorker(spec, /*ssd_index=*/i);
  }
  bed.Run(Milliseconds(10), Milliseconds(50));
}

struct Case {
  const char* name;
  mut::Mutation mutation;
  const char* expect_prefix;  // nullptr: expect a clean run
  void (*run)(check::InvariantChecker*);
};

const Case kCases[] = {
    {"none", mut::Mutation::kNone, nullptr, RunGimbalMix},
    {"credit_leak", mut::Mutation::kCreditLeak, "client.credit", RunGimbalMix},
    {"drr_skew", mut::Mutation::kDrrSkew, "drr.", RunGimbalMix},
    {"bucket_overrun", mut::Mutation::kBucketOverrun, "bucket.", RunGimbalMix},
    {"slot_overrun", mut::Mutation::kSlotOverrun, "slot.", RunSlotPressure},
    {"health_skip", mut::Mutation::kHealthSkip, "health.", RunHealthConflict},
    {"lock_leak", mut::Mutation::kLockLeak, "drain.txn.", RunLockLeak},
    {"phantom_unlock", mut::Mutation::kPhantomUnlock, "txn.lock.phantom",
     RunPhantomUnlock},
    {"placement_collapse", mut::Mutation::kPlacementCollapse, "kv.placement",
     RunRackPlacement},
    {"uplink_leak", mut::Mutation::kUplinkLeak, "rack.uplink", RunRackMix},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <mutation>\n  mutations:", argv[0]);
    for (const Case& c : kCases) std::fprintf(stderr, " %s", c.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Case* picked = nullptr;
  for (const Case& c : kCases) {
    if (std::strcmp(argv[1], c.name) == 0) picked = &c;
  }
  if (!picked) {
    std::fprintf(stderr, "unknown mutation '%s'\n", argv[1]);
    return 2;
  }

  mut::g_active = picked->mutation;
  check::InvariantChecker chk(/*fail_fast=*/false);
  picked->run(&chk);

  if (!picked->expect_prefix) {
    if (!chk.ok()) {
      std::fprintf(stderr, "FAIL: clean run produced %zu violation(s); "
                           "first: %s (%s)\n",
                   chk.violations().size(),
                   chk.violations()[0].invariant.c_str(),
                   chk.violations()[0].detail.c_str());
      return 1;
    }
    if (chk.checks_run() == 0) {
      std::fprintf(stderr, "FAIL: checker ran zero checks — not attached?\n");
      return 1;
    }
    std::printf("PASS: clean run, %llu checks, 0 violations\n",
                static_cast<unsigned long long>(chk.checks_run()));
    return 0;
  }

  for (const auto& v : chk.violations()) {
    if (v.invariant.compare(0, std::strlen(picked->expect_prefix),
                            picked->expect_prefix) == 0) {
      std::printf("PASS: mutation '%s' caught as %s at t=%lld (%s)\n",
                  picked->name, v.invariant.c_str(),
                  static_cast<long long>(v.when), v.detail.c_str());
      return 0;
    }
  }
  std::fprintf(stderr,
               "FAIL: mutation '%s' escaped — %zu violation(s), none "
               "matching '%s*'\n",
               picked->name, chk.violations().size(), picked->expect_prefix);
  for (size_t i = 0; i < chk.violations().size() && i < 5; ++i) {
    std::fprintf(stderr, "  got: %s\n",
                 chk.violations()[i].invariant.c_str());
  }
  return 1;
}
