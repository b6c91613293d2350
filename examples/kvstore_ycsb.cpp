// KV-store demo: four RocksDB-like instances sharing two Gimbal-managed
// SSDs, running different YCSB mixes concurrently — the §4.3 case study
// end to end (hierarchical blob allocation, WAL group commit, flushes,
// compactions, replication, credit rate limiting, read load balancing).
//
//   $ ./examples/kvstore_ycsb
#include <cstdio>

#include "kv/cluster.h"

using namespace gimbal;
using namespace gimbal::kv;

int main() {
  KvClusterConfig cfg;
  cfg.testbed.scheme = workload::Scheme::kGimbal;
  cfg.testbed.num_ssds = 2;
  cfg.testbed.condition = workload::SsdCondition::kFragmented;
  // Four replicated instances of 20k x 1 KiB records plus their WAL and
  // compaction churn need more than 2 x 128 MiB.
  cfg.testbed.ssd.logical_bytes = 256ull << 20;
  cfg.hba.backend_bytes = 256ull << 20;
  KvCluster cluster(cfg);

  const workload::YcsbWorkload mixes[] = {
      workload::YcsbWorkload::kA, workload::YcsbWorkload::kB,
      workload::YcsbWorkload::kC, workload::YcsbWorkload::kF};

  std::vector<std::unique_ptr<YcsbClient>> clients;
  for (int i = 0; i < 4; ++i) {
    auto& inst = cluster.AddInstance();
    inst.db->BulkLoad(20'000, 1024);
    workload::YcsbSpec spec;
    spec.workload = mixes[i];
    spec.record_count = 20'000;
    spec.seed = static_cast<uint64_t>(i) + 1;
    clients.push_back(
        std::make_unique<YcsbClient>(cluster.sim(), *inst.db, spec, 8));
    clients.back()->Start();
  }

  cluster.sim().RunUntil(Seconds(2));

  std::printf("%-8s %10s %10s %10s %12s %12s\n", "mix", "ops", "kops/s",
              "rd_avg_us", "rd_p999_us", "not_found");
  for (int i = 0; i < 4; ++i) {
    auto& st = clients[static_cast<size_t>(i)]->stats();
    std::printf("%-8s %10llu %10.1f %10.1f %12.1f %12llu\n",
                ToString(mixes[i]),
                static_cast<unsigned long long>(st.ops),
                static_cast<double>(st.ops) / 2.0 / 1000.0,
                st.read_latency.mean() / 1000.0,
                static_cast<double>(st.read_latency.p999()) / 1000.0,
                static_cast<unsigned long long>(st.not_found));
  }

  std::printf("\nper-instance storage engine activity:\n");
  for (int i = 0; i < 4; ++i) {
    auto& inst = *cluster.instances()[static_cast<size_t>(i)];
    const auto& db = inst.db->stats();
    const auto& bs = inst.blobs->stats();
    std::printf(
        "  %-8s flushes=%llu compactions=%llu wal_writes=%llu "
        "block_reads=%llu lb_to_shadow=%llu\n",
        ToString(mixes[i]), static_cast<unsigned long long>(db.flushes),
        static_cast<unsigned long long>(db.compactions),
        static_cast<unsigned long long>(db.wal_writes),
        static_cast<unsigned long long>(db.data_block_reads),
        static_cast<unsigned long long>(bs.balanced_to_shadow));
  }
  return 0;
}
