// KV cluster harness: N RocksDB-like instances over a pool of remote SSDs,
// wired exactly as §4.3 describes — per-instance initiators to every
// backend, a shared rack-scale global blob allocator, per-instance local
// allocators, blobstore with replication + credit-based load balancing —
// plus a closed-loop YCSB client per instance (§5.6's setup).
#pragma once

#include <memory>
#include <vector>

#include "common/histogram.h"
#include "kv/blobstore.h"
#include "kv/db.h"
#include "kv/hba.h"
#include "kv/rebuild.h"
#include "workload/runner.h"
#include "workload/ycsb.h"

namespace gimbal::kv {

struct KvClusterConfig {
  workload::TestbedConfig testbed;  // num_ssds = number of backends
  HbaConfig hba;
  KvDbConfig db;
  bool load_balance_reads = true;
  // Fig 13 ablation: force a client throttle regardless of scheme.
  std::optional<fabric::ThrottleMode> throttle;
};

class KvCluster {
 public:
  struct Instance {
    int id = -1;  // tenant label on kv.* metrics and checker ledgers
    std::vector<fabric::Initiator*> initiators;  // one per backend
    std::unique_ptr<Blobstore> blobs;
    std::unique_ptr<LocalBlobAllocator> alloc;
    std::unique_ptr<KvDb> db;
    // Drains the blobstore's dirty-replica ledger after degraded writes.
    std::unique_ptr<RebuildScanner> rebuild;
  };

  explicit KvCluster(KvClusterConfig cfg);

  Instance& AddInstance();

  workload::Testbed& bed() { return bed_; }
  sim::Simulator& sim() { return bed_.sim(); }
  GlobalBlobAllocator& global_allocator() { return global_; }
  std::vector<std::unique_ptr<Instance>>& instances() { return instances_; }

 private:
  KvClusterConfig cfg_;
  workload::Testbed bed_;
  GlobalBlobAllocator global_;
  std::vector<std::unique_ptr<Instance>> instances_;
};

// Closed-loop YCSB driver against one DB instance.
class YcsbClient {
 public:
  YcsbClient(sim::Simulator& sim, KvDb& db, workload::YcsbSpec spec,
             int concurrency = 4);

  void Start();
  void Stop() { running_ = false; }

  struct Stats {
    uint64_t ops = 0;
    uint64_t reads = 0;
    uint64_t updates = 0;
    uint64_t inserts = 0;
    uint64_t rmws = 0;
    // Always 0: no workload scans. Kept because perfbench/perfbench.cc
    // still adds it in its books check.
    uint64_t scans = 0;
    uint64_t not_found = 0;
    uint64_t failed = 0;   // ops resolved with a fault status
    uint64_t aborted = 0;  // ops killed by a crash / teardown (kAborted)
    LatencyHistogram read_latency;  // client-observed Get latency
    LatencyHistogram op_latency;    // all ops end-to-end
    void Reset() { *this = Stats{}; }
  };
  Stats& stats() { return stats_; }

 private:
  void IssueOne();
  void Finish(Tick start, bool is_read);
  // Tally a terminal status; returns true when the op resolved kOk.
  bool Note(IoStatus st);

  sim::Simulator& sim_;
  KvDb& db_;
  workload::YcsbGenerator gen_;
  int concurrency_;
  bool running_ = false;
  uint64_t next_stamp_ = 1;
  Stats stats_;
};

}  // namespace gimbal::kv
