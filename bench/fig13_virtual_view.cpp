// Figure 13: application-level gains from the per-SSD virtual view (§3.7,
// §5.6). 8 KV instances over one JBOF (4 SSDs, Gimbal target), comparing:
//   vanilla    - no client-side optimizations (no credit throttle, no LB)
//   +FC        - credit-based IO rate limiter on
//   +FC+LB     - plus replica read load balancing by credits
//
// Paper shape: the rate limiter cuts p99.9 read latency ~28% on average,
// the load balancer another ~19%.
#include "bench_util.h"

#include "kv/cluster.h"

using namespace gimbal;
using namespace gimbal::bench;
using kv::KvCluster;
using kv::KvClusterConfig;
using kv::YcsbClient;

namespace {

constexpr int kInstances = 8;
constexpr int kSsds = 4;
constexpr uint64_t kRecords = 20'000;

double P999ReadUs(workload::YcsbWorkload wl, bool flow_control,
                  bool load_balance) {
  KvClusterConfig cfg;
  cfg.testbed.scheme = Scheme::kGimbal;
  cfg.testbed.num_ssds = kSsds;
  cfg.testbed.target.cores = kSsds;
  cfg.testbed.condition = SsdCondition::kFragmented;
  cfg.testbed.ssd.logical_bytes = 256ull << 20;
  cfg.testbed.obs = CurrentObs();
  cfg.testbed.run_label = std::string(workload::ToString(wl)) +
                          (flow_control ? ":fc" : ":plain") +
                          (load_balance ? "+lb" : "");
  cfg.hba.backend_bytes = 256ull << 20;
  cfg.db.memtable_bytes = 1ull << 20;
  cfg.load_balance_reads = load_balance;
  cfg.throttle = flow_control ? fabric::ThrottleMode::kCredit
                              : fabric::ThrottleMode::kNone;
  KvCluster cluster(cfg);
  std::vector<std::unique_ptr<YcsbClient>> clients;
  for (int i = 0; i < kInstances; ++i) {
    auto& inst = cluster.AddInstance();
    inst.db->BulkLoad(kRecords, 1024);
    workload::YcsbSpec spec;
    spec.workload = wl;
    spec.record_count = kRecords;
    spec.seed = static_cast<uint64_t>(i) + 1 + g_seed;
    clients.push_back(
        std::make_unique<YcsbClient>(cluster.sim(), *inst.db, spec, 32));
  }
  for (auto& c : clients) c->Start();
  cluster.sim().RunUntil(Milliseconds(250));
  for (auto& c : clients) c->stats().Reset();
  if (auto* obs = CurrentObs()) {
    obs->metrics.ResetRun(cfg.testbed.run_label);
  }
  const Tick measure = Milliseconds(700);
  cluster.sim().RunUntil(cluster.sim().now() + measure);
  LatencyHistogram reads;
  for (auto& c : clients) reads.Merge(c->stats().read_latency);
  return static_cast<double>(reads.p999()) / 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs_session(argc, argv);
  workload::PrintHeader(
      "Fig 13 - Virtual-view optimizations (8 instances, 1 JBOF)",
      "Gimbal (SIGCOMM'21) Figure 13",
      "credit rate limiter cuts p99.9 read latency ~28%; read load "
      "balancing cuts a further ~19%");

  const workload::YcsbWorkload workloads[] = {
      workload::YcsbWorkload::kA, workload::YcsbWorkload::kB,
      workload::YcsbWorkload::kC, workload::YcsbWorkload::kD,
      workload::YcsbWorkload::kF};

  Table t("p99.9 read latency (us)");
  t.Columns({"workload", "vanilla", "vanilla+FC", "vanilla+FC+LB"});
  for (auto wl : workloads) {
    t.Row({ToString(wl), Table::Num(P999ReadUs(wl, false, false)),
           Table::Num(P999ReadUs(wl, true, false)),
           Table::Num(P999ReadUs(wl, true, true))});
  }
  t.Print();
  return 0;
}
