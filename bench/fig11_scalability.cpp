// Figures 11 & 12: throughput and average read latency as the number of
// KV instances grows (Gimbal, same topology as Fig 10).
//
// Paper shape: A/B/D saturate around 20 instances, F around 16 (its
// read-modify-writes hit write limits first, latency +38% from 16->24);
// read-only C keeps scaling with nearly flat read latency.
#include "bench_util.h"

#include "kv/cluster.h"

using namespace gimbal;
using namespace gimbal::bench;
using kv::KvCluster;
using kv::KvClusterConfig;
using kv::YcsbClient;

namespace {

constexpr int kSsds = 6;
// Quick (golden) runs shrink the per-instance dataset with the matrix.
inline uint64_t Records() { return Quick() ? 5'000 : 20'000; }

struct Point {
  double kiops;
  double avg_read_us;
};

Point RunOne(workload::YcsbWorkload wl, int instances) {
  KvClusterConfig cfg;
  cfg.testbed.scheme = Scheme::kGimbal;
  cfg.testbed.num_ssds = kSsds;
  cfg.testbed.target.cores = kSsds;
  cfg.testbed.condition = SsdCondition::kFragmented;
  cfg.testbed.ssd.logical_bytes = 256ull << 20;
  cfg.testbed.obs = CurrentObs();
  cfg.testbed.run_label =
      std::string(workload::ToString(wl)) + ":" + std::to_string(instances);
  cfg.hba.backend_bytes = 256ull << 20;
  cfg.db.memtable_bytes = 1ull << 20;
  KvCluster cluster(cfg);
  std::vector<std::unique_ptr<YcsbClient>> clients;
  for (int i = 0; i < instances; ++i) {
    auto& inst = cluster.AddInstance();
    inst.db->BulkLoad(Records(), 1024);
    workload::YcsbSpec spec;
    spec.workload = wl;
    spec.record_count = Records();
    spec.seed = static_cast<uint64_t>(i) + 1 + g_seed;
    clients.push_back(
        std::make_unique<YcsbClient>(cluster.sim(), *inst.db, spec, 24));
  }
  for (auto& c : clients) c->Start();
  cluster.sim().RunUntil(Quick() ? Milliseconds(100) : Milliseconds(250));
  for (auto& c : clients) c->stats().Reset();
  if (auto* obs = CurrentObs()) {
    obs->metrics.ResetRun(cfg.testbed.run_label);
  }
  const Tick measure = Quick() ? Milliseconds(250) : Milliseconds(500);
  cluster.sim().RunUntil(cluster.sim().now() + measure);
  uint64_t ops = 0;
  LatencyHistogram reads;
  for (auto& c : clients) {
    ops += c->stats().ops;
    reads.Merge(c->stats().read_latency);
  }
  return {static_cast<double>(ops) / ToSec(measure) / 1000.0,
          reads.mean() / 1000.0};
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs_session(argc, argv);
  workload::PrintHeader(
      "Fig 11/12 - Scalability with KV instance count (Gimbal)",
      "Gimbal (SIGCOMM'21) Figures 11-12",
      "A/B/D saturate ~20 instances, F ~16 (read latency rises steeply "
      "beyond), C scales with flat latency");

  // Quick (golden) config: the {A,C} x {4,8} corner of the matrix — enough
  // to pin the write-limited vs read-only scaling contrast.
  std::vector<workload::YcsbWorkload> workloads = {
      workload::YcsbWorkload::kA, workload::YcsbWorkload::kB,
      workload::YcsbWorkload::kC, workload::YcsbWorkload::kD,
      workload::YcsbWorkload::kF};
  std::vector<int> sizes = {4, 8, 12, 16, 20, 24};
  std::vector<std::string> cols = {"instances", "YCSB-A", "YCSB-B", "YCSB-C",
                                   "YCSB-D", "YCSB-F"};
  if (Quick()) {
    workloads = {workload::YcsbWorkload::kA, workload::YcsbWorkload::kC};
    sizes = {4, 8};
    cols = {"instances", "YCSB-A", "YCSB-C"};
  }

  Table thpt("Fig 11: Throughput (KIOPS) vs instances");
  thpt.Columns(cols);
  Table lat("Fig 12: Average read latency (us) vs instances");
  lat.Columns(cols);
  for (int n : sizes) {
    std::vector<std::string> r1{std::to_string(n)}, r2{std::to_string(n)};
    for (auto wl : workloads) {
      Point p = RunOne(wl, n);
      r1.push_back(Table::Num(p.kiops));
      r2.push_back(Table::Num(p.avg_read_us));
    }
    thpt.Row(r1);
    lat.Row(r2);
  }
  thpt.Print();
  lat.Print();
  return 0;
}
