// Figure 13: application-level gains from the per-SSD virtual view (§3.7,
// §5.6). 8 KV instances over one JBOF (4 SSDs, Gimbal target), comparing:
//   vanilla    - no client-side optimizations (no credit throttle, no LB)
//   +FC        - credit-based IO rate limiter on
//   +FC+LB     - plus replica read load balancing by credits
//
// Paper shape: the rate limiter cuts p99.9 read latency ~28% on average,
// the load balancer another ~19%.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

constexpr int kInstances = 8;
constexpr int kSsds = 4;
constexpr uint64_t kRecords = 20'000;

double P999ReadUs(workload::YcsbWorkload wl, bool flow_control,
                  bool load_balance) {
  kv::KvClusterConfig cfg =
      KvConfig(Scheme::kGimbal, kSsds, SsdCondition::kFragmented,
               std::string(workload::ToString(wl)) +
                   (flow_control ? ":fc" : ":plain") +
                   (load_balance ? "+lb" : ""));
  cfg.load_balance_reads = load_balance;
  cfg.throttle = flow_control ? fabric::ThrottleMode::kCredit
                              : fabric::ThrottleMode::kNone;
  KvYcsbCell cell(cfg, wl, kInstances, kRecords, 32);
  cell.Warmup(Milliseconds(250));
  cell.RunFor(Milliseconds(700));
  return static_cast<double>(cell.Reads().p999()) / 1000.0;
}

int Run() {
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

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
