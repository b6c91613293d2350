// KV fault tolerance (docs/FAULTS.md): status propagation through
// Blobstore/Db, failover reads, degraded writes + the dirty-replica
// ledger, background re-replication, WAL ack-holding under total replica
// loss, and crash/recovery WAL replay.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "kv/cluster.h"
#include "obs/obs.h"
#include "obs/schema.h"

namespace gimbal::kv {
namespace {

KvClusterConfig FaultCluster(int ssds = 2) {
  KvClusterConfig cfg;
  cfg.testbed.num_ssds = ssds;
  cfg.testbed.scheme = workload::Scheme::kGimbal;
  cfg.testbed.ssd.logical_bytes = 128ull << 20;
  cfg.testbed.condition = workload::SsdCondition::kClean;
  cfg.hba.backend_bytes = 128ull << 20;
  cfg.db.memtable_bytes = 256 * 1024;  // small so flushes happen in tests
  cfg.db.sstable_target_bytes = 256 * 1024;
  cfg.db.level1_bytes = 1 << 20;
  return cfg;
}

// Tentpole (1): a read whose chosen replica dies mid-burst retries the
// surviving copy and still resolves kOk.
TEST(KvFault, FailoverReadServesFromSurvivingReplica) {
  KvClusterConfig cfg = FaultCluster();
  // Every IO on SSD 0 fails while the burst is active.
  cfg.testbed.faults.media_errors.push_back(
      {0, Milliseconds(10), Milliseconds(120), 1.0, Microseconds(200)});
  KvCluster cluster(cfg);
  auto& inst = cluster.AddInstance();
  inst.db->BulkLoad(10'000, 1024);
  cluster.sim().RunUntil(Milliseconds(15));

  int ok = 0, found = 0, issued = 0;
  for (uint64_t k = 0; k < 60; ++k) {
    ++issued;
    inst.db->Get(k * 31, [&](IoStatus st, bool f, Value) {
      if (st == IoStatus::kOk) ++ok;
      if (f) ++found;
    });
  }
  cluster.sim().RunUntil(Milliseconds(100));
  EXPECT_EQ(ok, issued);
  EXPECT_EQ(found, issued);
  // Some of those reads must have tried SSD 0 first and failed over.
  EXPECT_GT(inst.blobs->stats().failover_reads, 0u);
  EXPECT_GT(inst.db->stats().data_block_reads, 0u);
}

// When both copies are gone the read fails cleanly with the fault status
// after the per-blob budget — it must not hang or invent a not-found=ok.
TEST(KvFault, ReadFailsCleanlyWhenBothCopiesDead) {
  KvClusterConfig cfg = FaultCluster();
  cfg.testbed.faults.failures.push_back(
      {0, Milliseconds(10), Milliseconds(100)});
  cfg.testbed.faults.failures.push_back(
      {1, Milliseconds(10), Milliseconds(100)});
  KvCluster cluster(cfg);
  auto& inst = cluster.AddInstance();
  inst.db->BulkLoad(5'000, 1024);
  cluster.sim().RunUntil(Milliseconds(15));

  bool called = false;
  IoStatus got = IoStatus::kOk;
  inst.db->Get(1234, [&](IoStatus st, bool f, Value) {
    called = true;
    got = st;
    EXPECT_FALSE(f);
  });
  cluster.sim().RunUntil(Milliseconds(60));
  EXPECT_TRUE(called);
  EXPECT_NE(got, IoStatus::kOk);
  cluster.sim().RunUntil(Milliseconds(200));  // let the windows close
}

// Satellite (2): once a backend is observed down, reads — including the
// every-16th forced load-balancer probe — steer to the surviving copy, so
// one dead SSD costs at most a couple of failovers, not one per probe.
TEST(KvFault, ProbeNeverTargetsObservedFailedBackend) {
  KvClusterConfig cfg = FaultCluster();
  cfg.testbed.faults.failures.push_back({1, Milliseconds(10), /*never*/ 0});
  KvCluster cluster(cfg);
  auto& inst = cluster.AddInstance();
  inst.db->BulkLoad(20'000, 1024);
  cluster.sim().RunUntil(Milliseconds(15));

  int ok = 0;
  std::function<void(int)> next = [&](int i) {
    if (i >= 100) return;
    inst.db->Get(static_cast<Key>(i) * 97, [&, i](IoStatus st, bool f, Value) {
      EXPECT_EQ(st, IoStatus::kOk) << "read " << i;
      EXPECT_TRUE(f);
      ++ok;
      next(i + 1);
    });
  };
  next(0);
  cluster.sim().RunUntil(Milliseconds(300));
  EXPECT_EQ(ok, 100);
  // Sequential reads: after the first kDeviceFailed marks SSD 1 down, no
  // further read (forced probe included) targets it. Without the
  // down-override ~1 in 16 reads would fail over.
  EXPECT_GE(inst.blobs->stats().failover_reads, 1u);
  EXPECT_LE(inst.blobs->stats().failover_reads, 5u);
}

// Tentpole (2): a replicated write with one dead backend acks degraded
// (quorum-of-available) and records the missing copy in the dirty ledger;
// tentpole (3): the rebuild scanner drains the ledger once the backend
// recovers, without any health subscription.
TEST(KvFault, DegradedWritesAckAndRebuildDrainsAfterRecovery) {
  obs::Observability obs;
  KvClusterConfig cfg = FaultCluster();
  cfg.testbed.obs = &obs;
  cfg.testbed.faults.failures.push_back(
      {1, Milliseconds(10), Milliseconds(60)});
  KvCluster cluster(cfg);
  auto& inst = cluster.AddInstance();
  cluster.sim().RunUntil(Milliseconds(12));

  int acked = 0, failed = 0;
  for (uint64_t k = 0; k < 300; ++k) {
    inst.db->Put(k, 1024, k + 1, [&](IoStatus st) {
      st == IoStatus::kOk ? ++acked : ++failed;
    });
  }
  cluster.sim().RunUntil(Milliseconds(55));
  // SSD 0 is alive the whole time: every write acks despite SSD 1 being
  // dark, and the missing copies are on the ledger.
  EXPECT_EQ(acked, 300);
  EXPECT_EQ(failed, 0);
  EXPECT_GT(inst.blobs->stats().degraded_writes, 0u);
  EXPECT_GT(inst.blobs->stats().dirty_recorded, 0u);

  // Recovery at 60ms (+probation): the scanner's probe-by-repair backoff
  // lands, repairs flow, and the ledger drains completely.
  cluster.sim().RunUntil(Milliseconds(500));
  EXPECT_EQ(inst.blobs->dirty_count(), 0u);
  const auto& bs = inst.blobs->stats();
  EXPECT_EQ(bs.dirty_repaired + bs.dirty_dropped, bs.dirty_recorded);
  EXPECT_GT(inst.rebuild->stats().repairs, 0u);
  EXPECT_GT(bs.rebuild_bytes, 0u);

  // Observability: the kv.* series carry the same story, and the
  // must-stay-zero counter is zero.
  auto& m = obs.metrics;
  const obs::Labels l = obs::Labels::TenantSsd(inst.id, -1);
  EXPECT_GT(m.GetCounter(obs::schema::kKvDegradedWrites, l).value(), 0u);
  EXPECT_GT(m.GetCounter(obs::schema::kKvRebuildBytes, l).value(), 0u);
  EXPECT_EQ(m.GetCounter(obs::schema::kKvLostWrites, l).value(), 0u);
  EXPECT_EQ(m.GetGauge(obs::schema::kKvDirtyReplicas, l).value(), 0.0);
}

// Satellite (1) + tentpole invariant: when BOTH replicas of a WAL batch
// fail, the group commit must hold its waiters (the old code released
// them, losing acked writes), re-place the segment off the failed backend
// and retry until a copy lands. No ack before durability, ever.
TEST(KvFault, WalAckHeldUntilSomeReplicaIsDurable) {
  KvClusterConfig cfg = FaultCluster();
  cfg.db.memtable_bytes = 4ull << 20;  // WAL traffic only, no flush noise
  cfg.testbed.faults.failures.push_back(
      {0, Milliseconds(10), Milliseconds(40)});
  cfg.testbed.faults.failures.push_back(
      {1, Milliseconds(10), Milliseconds(40)});
  KvCluster cluster(cfg);
  auto& inst = cluster.AddInstance();
  cluster.sim().RunUntil(Milliseconds(15));

  bool acked = false;
  IoStatus final_st = IoStatus::kMediaError;
  inst.db->Put(7, 1024, 99, [&](IoStatus st) {
    acked = true;
    final_st = st;
  });
  // Deep inside the outage: the commit has been attempted and re-queued,
  // but the waiter must still be held.
  cluster.sim().RunUntil(Milliseconds(35));
  EXPECT_FALSE(acked);
  EXPECT_GT(inst.db->stats().wal_retries, 0u);

  // Both SSDs heal at 40ms; the next retry lands and the ack arrives kOk.
  cluster.sim().RunUntil(Milliseconds(200));
  EXPECT_TRUE(acked);
  EXPECT_EQ(final_st, IoStatus::kOk);
}

// Flush trims the WAL of a flushed memtable; dirty entries whose data died
// with the trim are invalidated instead of being repaired pointlessly.
TEST(KvFault, TrimInvalidatesObsoleteDirtyEntries) {
  KvClusterConfig cfg = FaultCluster();
  cfg.testbed.faults.failures.push_back({1, Milliseconds(10), /*never*/ 0});
  KvCluster cluster(cfg);
  auto& inst = cluster.AddInstance();
  cluster.sim().RunUntil(Milliseconds(12));
  // Enough traffic for several memtable rotations -> flushes -> WAL trims
  // while every shadow copy on dead SSD 1 goes onto the ledger.
  for (uint64_t k = 0; k < 900; ++k) {
    inst.db->Put(k, 1024, k, nullptr);
  }
  cluster.sim().RunUntil(Milliseconds(800));
  EXPECT_GT(inst.blobs->stats().dirty_recorded, 0u);
  EXPECT_GT(inst.blobs->stats().dirty_dropped, 0u);
  EXPECT_GT(inst.db->stats().flushes, 0u);
}

// Tentpole (4): crash + WAL replay. Every acked Put survives a process
// crash; un-acked work fails kAborted; the memtable converges to the
// pre-crash acked state.
TEST(KvFault, CrashRecoveryReplaysAckedWrites) {
  KvCluster cluster(FaultCluster());
  auto& inst = cluster.AddInstance();
  inst.db->BulkLoad(5'000, 1024);

  std::map<Key, uint64_t> acked;  // key -> stamp, ack'd before the crash
  for (uint64_t k = 0; k < 200; ++k) {
    Key key = 10'000 + k;
    uint64_t stamp = 1'000 + k;
    inst.db->Put(key, 512, stamp, [&acked, key, stamp](IoStatus st) {
      if (st == IoStatus::kOk) acked[key] = stamp;
    });
  }
  cluster.sim().RunUntil(Milliseconds(100));
  ASSERT_GT(acked.size(), 0u);

  // Ten more Puts issued and immediately crashed: never acked, must
  // resolve kAborted (not hang, not claim durability).
  int aborted = 0, late_ok = 0;
  for (uint64_t k = 0; k < 10; ++k) {
    inst.db->Put(20'000 + k, 512, 1, [&](IoStatus st) {
      st == IoStatus::kAborted ? ++aborted : ++late_ok;
    });
  }
  inst.db->SimulateCrash();
  EXPECT_EQ(inst.db->memtable_bytes(), 0u);  // volatile state gone

  bool recovered = false;
  inst.db->Recover([&](IoStatus st) {
    recovered = true;
    EXPECT_EQ(st, IoStatus::kOk);
  });
  cluster.sim().RunUntil(Milliseconds(200));
  EXPECT_TRUE(recovered);
  EXPECT_EQ(aborted, 10);
  EXPECT_EQ(late_ok, 0);
  EXPECT_EQ(inst.db->stats().crashes, 1u);
  EXPECT_EQ(inst.db->stats().recoveries, 1u);
  EXPECT_GT(inst.db->stats().replayed_records, 0u);

  // Convergence: every acked write is visible with its acked stamp.
  int checked = 0, correct = 0;
  for (const auto& [key, stamp] : acked) {
    ++checked;
    inst.db->Get(key, [&, stamp = stamp](IoStatus st, bool f, Value v) {
      if (st == IoStatus::kOk && f && v.stamp == stamp) ++correct;
    });
  }
  cluster.sim().RunUntil(Milliseconds(400));
  EXPECT_EQ(correct, checked);
}

// A second crash before any flush replays the same WAL again — replay is
// idempotent over the durable record list.
TEST(KvFault, DoubleCrashReplaysIdempotently) {
  KvClusterConfig cfg = FaultCluster();
  cfg.db.memtable_bytes = 4ull << 20;  // keep everything in WAL + memtable
  KvCluster cluster(cfg);
  auto& inst = cluster.AddInstance();
  std::map<Key, uint64_t> acked;
  for (uint64_t k = 0; k < 50; ++k) {
    Key key = 100 + k;
    inst.db->Put(key, 512, k + 1, [&acked, key, k](IoStatus st) {
      if (st == IoStatus::kOk) acked[key] = k + 1;
    });
  }
  cluster.sim().RunUntil(Milliseconds(50));
  ASSERT_EQ(acked.size(), 50u);

  for (int round = 0; round < 2; ++round) {
    inst.db->SimulateCrash();
    bool rec = false;
    inst.db->Recover([&](IoStatus) { rec = true; });
    cluster.sim().RunUntil(cluster.sim().now() + Milliseconds(100));
    ASSERT_TRUE(rec) << "round " << round;
  }
  int correct = 0;
  for (const auto& [key, stamp] : acked) {
    inst.db->Get(key, [&, stamp = stamp](IoStatus st, bool f, Value v) {
      if (st == IoStatus::kOk && f && v.stamp == stamp) ++correct;
    });
  }
  cluster.sim().RunUntil(cluster.sim().now() + Milliseconds(100));
  EXPECT_EQ(correct, 50);
  EXPECT_EQ(inst.db->stats().crashes, 2u);
  EXPECT_EQ(inst.db->stats().recoveries, 2u);
}

}  // namespace
}  // namespace gimbal::kv
