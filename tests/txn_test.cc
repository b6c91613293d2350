// Unit tests for the transaction layer (kv/txn.h): LockManager protocol
// decisions driven directly, the TxnCoordinator end to end over the fully
// simulated disaggregated stack, and the TPC-C-lite generator's shape.
#include <gtest/gtest.h>

#include <vector>

#include "kv/cluster.h"
#include "kv/txn.h"
#include "workload/tpcc.h"

namespace gimbal::kv {
namespace {

// --- LockManager: protocol decision table ----------------------------------

TEST(LockManager, SharedCompatibleExclusiveConflicts) {
  LockManager lm(TxnProtocol::kNoWait);
  lm.Begin(1, 1, nullptr);
  lm.Begin(2, 2, nullptr);
  lm.Begin(3, 3, nullptr);
  EXPECT_EQ(lm.Acquire(1, 7, LockMode::kShared, nullptr),
            LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.Acquire(2, 7, LockMode::kShared, nullptr),
            LockManager::Outcome::kGranted);
  // X conflicts with both sharers; NO_WAIT aborts the requester.
  EXPECT_EQ(lm.Acquire(3, 7, LockMode::kExclusive, nullptr),
            LockManager::Outcome::kAbort);
  EXPECT_TRUE(lm.Holds(1, 7));
  EXPECT_TRUE(lm.Holds(2, 7));
  EXPECT_FALSE(lm.Holds(3, 7));
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  lm.ReleaseAll(3);
  EXPECT_TRUE(lm.idle());
}

TEST(LockManager, ReacquireIsNoop) {
  LockManager lm(TxnProtocol::kNoWait);
  lm.Begin(1, 1, nullptr);
  EXPECT_EQ(lm.Acquire(1, 5, LockMode::kExclusive, nullptr),
            LockManager::Outcome::kGranted);
  // Same and weaker modes are no-ops; held_count does not grow.
  EXPECT_EQ(lm.Acquire(1, 5, LockMode::kExclusive, nullptr),
            LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.Acquire(1, 5, LockMode::kShared, nullptr),
            LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.held_count(1), 1u);
  EXPECT_EQ(lm.stats().acquires, 1u);
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.idle());
}

TEST(LockManager, UpgradeSoleHolderImmediate) {
  LockManager lm(TxnProtocol::kWaitDie);
  lm.Begin(1, 1, nullptr);
  EXPECT_EQ(lm.Acquire(1, 5, LockMode::kShared, nullptr),
            LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.Acquire(1, 5, LockMode::kExclusive, nullptr),
            LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.stats().upgrades, 1u);
  EXPECT_EQ(lm.held_count(1), 1u);  // an upgrade is not a new lock
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.stats().releases, 1u);
  EXPECT_TRUE(lm.idle());
}

TEST(LockManager, WaitDieOlderWaitsYoungerDies) {
  LockManager lm(TxnProtocol::kWaitDie);
  lm.Begin(1, 1, nullptr);   // older
  lm.Begin(2, 2, nullptr);   // middle
  lm.Begin(3, 3, nullptr);   // younger
  EXPECT_EQ(lm.Acquire(2, 9, LockMode::kExclusive, nullptr),
            LockManager::Outcome::kGranted);
  // Younger than the holder: dies.
  EXPECT_EQ(lm.Acquire(3, 9, LockMode::kExclusive, nullptr),
            LockManager::Outcome::kAbort);
  lm.ReleaseAll(3);
  // Older than the holder: waits, granted on release.
  bool granted = false;
  EXPECT_EQ(lm.Acquire(1, 9, LockMode::kExclusive,
                       [&]() { granted = true; }),
            LockManager::Outcome::kWaiting);
  EXPECT_EQ(lm.total_waiting(), 1u);
  lm.ReleaseAll(2);
  EXPECT_TRUE(granted);
  EXPECT_TRUE(lm.Holds(1, 9));
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.idle());
}

TEST(LockManager, WaitDieUpgradeRaceYoungerDies) {
  // Two S holders both upgrade — the classic upgrade deadlock. The younger
  // upgrader dies against the older co-holder; the older waits and its
  // upgrade is promoted out of queue order once it is the sole holder.
  LockManager lm(TxnProtocol::kWaitDie);
  lm.Begin(1, 1, nullptr);
  lm.Begin(2, 2, nullptr);
  ASSERT_EQ(lm.Acquire(1, 4, LockMode::kShared, nullptr),
            LockManager::Outcome::kGranted);
  ASSERT_EQ(lm.Acquire(2, 4, LockMode::kShared, nullptr),
            LockManager::Outcome::kGranted);
  bool older_granted = false;
  EXPECT_EQ(lm.Acquire(1, 4, LockMode::kExclusive,
                       [&]() { older_granted = true; }),
            LockManager::Outcome::kWaiting);
  EXPECT_EQ(lm.Acquire(2, 4, LockMode::kExclusive, nullptr),
            LockManager::Outcome::kAbort);
  lm.ReleaseAll(2);  // younger aborts, dropping its S
  EXPECT_TRUE(older_granted);
  EXPECT_TRUE(lm.Holds(1, 4));
  EXPECT_EQ(lm.stats().upgrades, 1u);
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.idle());
}

TEST(LockManager, WoundWaitWoundsYoungerHolder) {
  LockManager lm(TxnProtocol::kWoundWait);
  bool young_wounded = false;
  lm.Begin(1, 1, nullptr);
  lm.Begin(2, 2, [&]() { young_wounded = true; });
  ASSERT_EQ(lm.Acquire(2, 3, LockMode::kExclusive, nullptr),
            LockManager::Outcome::kGranted);
  bool older_granted = false;
  EXPECT_EQ(lm.Acquire(1, 3, LockMode::kExclusive,
                       [&]() { older_granted = true; }),
            LockManager::Outcome::kWaiting);
  EXPECT_TRUE(young_wounded);
  EXPECT_EQ(lm.stats().wounds, 1u);
  lm.ReleaseAll(2);  // the victim aborts
  EXPECT_TRUE(older_granted);
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.idle());
}

TEST(LockManager, WoundWaitPinnedHolderNotWounded) {
  LockManager lm(TxnProtocol::kWoundWait);
  bool young_wounded = false;
  lm.Begin(1, 1, nullptr);
  lm.Begin(2, 2, [&]() { young_wounded = true; });
  ASSERT_EQ(lm.Acquire(2, 3, LockMode::kExclusive, nullptr),
            LockManager::Outcome::kGranted);
  lm.PinCommit(2);  // mid-commit: releases in bounded time, safe to wait on
  bool older_granted = false;
  EXPECT_EQ(lm.Acquire(1, 3, LockMode::kExclusive,
                       [&]() { older_granted = true; }),
            LockManager::Outcome::kWaiting);
  EXPECT_FALSE(young_wounded);
  EXPECT_EQ(lm.stats().wounds, 0u);
  lm.ReleaseAll(2);  // commit completes
  EXPECT_TRUE(older_granted);
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.idle());
}

TEST(LockManager, WoundWaitQueuedConflictOvertakenNotWounded) {
  // A younger conflicting request parked in the queue holds nothing, so an
  // older X arriving on the same key does not wound it — the older request
  // simply overtakes it in the ts-ordered queue.
  LockManager lm(TxnProtocol::kWoundWait);
  bool parked_wounded = false;
  lm.Begin(1, 1, nullptr);
  lm.Begin(2, 2, nullptr);
  lm.Begin(3, 3, [&]() { parked_wounded = true; });
  ASSERT_EQ(lm.Acquire(2, 3, LockMode::kExclusive, nullptr),
            LockManager::Outcome::kGranted);
  lm.PinCommit(2);  // shield the holder so the queue builds up
  bool young_granted = false, old_granted = false;
  EXPECT_EQ(lm.Acquire(3, 3, LockMode::kExclusive,
                       [&]() { young_granted = true; }),
            LockManager::Outcome::kWaiting);
  EXPECT_EQ(lm.Acquire(1, 3, LockMode::kExclusive,
                       [&]() { old_granted = true; }),
            LockManager::Outcome::kWaiting);
  EXPECT_FALSE(parked_wounded);  // queued conflicts are overtaken, not shot
  lm.ReleaseAll(2);
  EXPECT_TRUE(old_granted);  // ts order: the older one goes first
  EXPECT_FALSE(young_granted);
  lm.ReleaseAll(1);
  EXPECT_TRUE(young_granted);
  lm.ReleaseAll(3);
  EXPECT_TRUE(lm.idle());
}

TEST(LockManager, WaitDieGrantRevalidationKillsYoungWaiter) {
  // Regression for the two-key deadlock: Z(30) holds k. H(20) waits
  // (older than Z). R(10) arrives, waits, and jumps ahead in ts order.
  // When Z releases, R is granted — and H, younger than the new holder,
  // must die (its wound callback fires), otherwise H could be waiting for
  // R here while R waits for H's X elsewhere.
  LockManager lm(TxnProtocol::kWaitDie);
  bool h_killed = false, h_granted = false, r_granted = false;
  lm.Begin(30, 30, nullptr);
  lm.Begin(20, 20, [&]() { h_killed = true; });
  lm.Begin(10, 10, nullptr);
  ASSERT_EQ(lm.Acquire(30, 6, LockMode::kExclusive, nullptr),
            LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.Acquire(20, 6, LockMode::kExclusive,
                       [&]() { h_granted = true; }),
            LockManager::Outcome::kWaiting);
  EXPECT_EQ(lm.Acquire(10, 6, LockMode::kExclusive,
                       [&]() { r_granted = true; }),
            LockManager::Outcome::kWaiting);
  lm.ReleaseAll(30);
  EXPECT_TRUE(r_granted);
  EXPECT_TRUE(h_killed);
  EXPECT_FALSE(h_granted);
  lm.ReleaseAll(20);  // the killed waiter aborts
  lm.ReleaseAll(10);
  EXPECT_TRUE(lm.idle());
}

// --- TxnCoordinator over the simulated stack -------------------------------

KvClusterConfig SmallCluster() {
  KvClusterConfig cfg;
  cfg.testbed.num_ssds = 2;
  cfg.testbed.scheme = workload::Scheme::kGimbal;
  cfg.testbed.ssd.logical_bytes = 128ull << 20;
  cfg.testbed.condition = workload::SsdCondition::kClean;
  cfg.hba.backend_bytes = 128ull << 20;
  cfg.db.memtable_bytes = 256 * 1024;
  return cfg;
}

TxnRequest MakeReq(std::initializer_list<TxnOp> ops) {
  TxnRequest req;
  req.ops = ops;
  return req;
}

TEST(TxnCoordinator, SingleTxnCommitsDurably) {
  KvCluster cluster(SmallCluster());
  auto& inst = cluster.AddInstance();
  TxnCoordinator coord(cluster.sim(), *inst.db);
  TxnResult res;
  bool done = false;
  coord.Submit(MakeReq({{101, true, 512}, {102, true, 512}}),
               [&](TxnResult r) {
                 res = r;
                 done = true;
               });
  cluster.sim().RunUntil(Milliseconds(20));
  ASSERT_TRUE(done);
  EXPECT_TRUE(res.committed);
  EXPECT_EQ(res.attempts, 1);
  EXPECT_GT(res.commit_stamp, 0u);
  EXPECT_TRUE(coord.locks().idle());  // strict 2PL: all released post-ack
  // The committed value is durable and readable with the commit stamp.
  bool found = false;
  Value got;
  inst.db->Get(101, [&](IoStatus, bool f, Value v) {
    found = f;
    got = v;
  });
  cluster.sim().RunUntil(Milliseconds(30));
  EXPECT_TRUE(found);
  EXPECT_EQ(got.stamp, res.commit_stamp);
}

TEST(TxnCoordinator, ReadOnlyTxnCommitsWithoutWrites) {
  KvCluster cluster(SmallCluster());
  auto& inst = cluster.AddInstance();
  TxnCoordinator coord(cluster.sim(), *inst.db);
  bool done = false, committed = false;
  coord.Submit(MakeReq({{55, false, 0}}), [&](TxnResult r) {
    done = true;
    committed = r.committed;
  });
  cluster.sim().RunUntil(Milliseconds(20));
  EXPECT_TRUE(done);
  EXPECT_TRUE(committed);
  EXPECT_EQ(coord.stats().writes, 0u);
  EXPECT_EQ(coord.stats().reads, 1u);
}

TEST(TxnCoordinator, NoWaitConflictFailsAtMaxAttempts) {
  KvCluster cluster(SmallCluster());
  auto& inst = cluster.AddInstance();
  TxnCoordinator::Config cfg;
  cfg.protocol = TxnProtocol::kNoWait;
  cfg.max_attempts = 1;
  TxnCoordinator coord(cluster.sim(), *inst.db, cfg);
  TxnResult r1, r2;
  bool d1 = false, d2 = false;
  coord.Submit(MakeReq({{7, true, 512}}), [&](TxnResult r) {
    r1 = r;
    d1 = true;
  });
  // T1 holds X(7) through its WAL commit; T2 conflicts immediately and
  // NO_WAIT aborts it — max_attempts=1 makes that terminal.
  coord.Submit(MakeReq({{7, true, 512}}), [&](TxnResult r) {
    r2 = r;
    d2 = true;
  });
  EXPECT_TRUE(d2);  // failed synchronously, before any IO
  EXPECT_FALSE(r2.committed);
  EXPECT_EQ(r2.status, IoStatus::kAborted);
  EXPECT_EQ(r2.attempts, 1);
  cluster.sim().RunUntil(Milliseconds(20));
  ASSERT_TRUE(d1);
  EXPECT_TRUE(r1.committed);
  EXPECT_EQ(coord.stats().submitted, 2u);
  EXPECT_EQ(coord.stats().commits, 1u);
  EXPECT_EQ(coord.stats().failed, 1u);
}

TEST(TxnCoordinator, ConflictingRmwsRetryAndSerialize) {
  // Ten read-modify-write transactions on the same key, submitted in one
  // burst under WAIT_DIE with unbounded retries: all must commit, with
  // distinct monotone stamps and a clean serializability oracle.
  KvCluster cluster(SmallCluster());
  auto& inst = cluster.AddInstance();
  TxnCoordinator::Config cfg;
  cfg.protocol = TxnProtocol::kWaitDie;
  TxnCoordinator coord(cluster.sim(), *inst.db, cfg);
  std::vector<TxnResult> results;
  for (int i = 0; i < 10; ++i) {
    coord.Submit(MakeReq({{900, false, 0}, {900, true, 512}}),
                 [&](TxnResult r) { results.push_back(r); });
  }
  cluster.sim().RunUntil(Milliseconds(200));
  ASSERT_EQ(results.size(), 10u);
  uint64_t last_stamp = 0;
  for (const TxnResult& r : results) {
    EXPECT_TRUE(r.committed);
    EXPECT_GT(r.commit_stamp, last_stamp);  // commit order == stamp order
    last_stamp = r.commit_stamp;
  }
  EXPECT_EQ(coord.stats().stamp_mismatches, 0u);
  EXPECT_TRUE(coord.locks().idle());
}

TEST(TxnCoordinator, GiveUpMakesRetriesTerminal) {
  KvCluster cluster(SmallCluster());
  auto& inst = cluster.AddInstance();
  TxnCoordinator::Config cfg;
  cfg.protocol = TxnProtocol::kNoWait;
  TxnCoordinator coord(cluster.sim(), *inst.db, cfg);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    coord.Submit(MakeReq({{33, true, 512}}),
                 [&](TxnResult) { ++done; });
  }
  cluster.sim().RunUntil(Microseconds(50));
  coord.set_give_up(true);  // drain contract: aborts become terminal
  cluster.sim().Run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(coord.stats().submitted,
            coord.stats().commits + coord.stats().failed);
  EXPECT_TRUE(coord.locks().idle());
}

// --- TPC-C-lite generator ---------------------------------------------------

TEST(TpccGenerator, MixAndShape) {
  workload::TpccSpec spec;
  spec.warehouses = 4;
  spec.seed = 7;
  workload::TpccGenerator gen(spec);
  int new_orders = 0, payments = 0;
  for (int i = 0; i < 2000; ++i) {
    workload::TpccTxn txn = gen.Next();
    if (txn.type == workload::TpccTxnType::kNewOrder) ++new_orders;
    else ++payments;
    ASSERT_GE(txn.ops.size(), 2u);
    EXPECT_LT(txn.warehouse, spec.warehouses);
    // Every transaction writes something, and reads precede the upgrade
    // write of the same key (S then X — the upgrade stressor).
    bool has_write = false, has_upgrade = false;
    for (size_t a = 0; a < txn.ops.size(); ++a) {
      has_write = has_write || txn.ops[a].write;
      if (!txn.ops[a].write) {
        for (size_t b = a + 1; b < txn.ops.size(); ++b) {
          if (txn.ops[b].write && txn.ops[b].key == txn.ops[a].key) {
            has_upgrade = true;
          }
        }
      }
    }
    EXPECT_TRUE(has_write);
    EXPECT_TRUE(has_upgrade);
  }
  // new_order_ratio = 0.55 ± sampling noise.
  EXPECT_GT(new_orders, 900);
  EXPECT_LT(new_orders, 1300);
  EXPECT_EQ(new_orders + payments, 2000);
}

TEST(TpccGenerator, DeterministicPerSeed) {
  workload::TpccSpec spec;
  spec.warehouses = 2;
  spec.seed = 11;
  workload::TpccGenerator a(spec), b(spec);
  for (int i = 0; i < 100; ++i) {
    workload::TpccTxn ta = a.Next(), tb = b.Next();
    ASSERT_EQ(ta.type, tb.type);
    ASSERT_EQ(ta.ops.size(), tb.ops.size());
    for (size_t j = 0; j < ta.ops.size(); ++j) {
      ASSERT_EQ(ta.ops[j].key, tb.ops[j].key);
      ASSERT_EQ(ta.ops[j].write, tb.ops[j].write);
    }
  }
}

}  // namespace
}  // namespace gimbal::kv
