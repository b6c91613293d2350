// Figure 10: RocksDB-like instances on YCSB A/B/C/D/F across the four
// schemes — aggregated throughput, average read latency, p99.9 read
// latency. The paper runs 24 instances over 3 JBOFs (12 fragmented SSDs);
// we scale the keyspace (20K x 1KB per instance) and keep the topology.
//
// Paper shape: Gimbal beats ReFlex/Parda/FlashFQ by ~1.7x/2.1x/1.3x
// throughput on average, with ~20-55% lower average and ~27-48% lower
// p99.9 read latency; update-heavy A and F gain the most, read-only C the
// least.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

constexpr int kInstances = 24;
constexpr int kSsds = 6;
constexpr uint64_t kRecords = 20'000;

struct RunResult {
  double kiops;
  double avg_read_us;
  double p999_read_us;
};

RunResult RunOne(Scheme scheme, workload::YcsbWorkload wl) {
  KvYcsbCell cell(
      KvConfig(scheme, kSsds, SsdCondition::kFragmented,
               std::string(ToString(scheme)) + ":" + workload::ToString(wl)),
      wl, kInstances, kRecords, 24);
  cell.Warmup(Milliseconds(300));
  const Tick measure = Milliseconds(700);
  cell.RunFor(measure);
  const LatencyHistogram reads = cell.Reads();
  return {static_cast<double>(cell.Ops()) / ToSec(measure) / 1000.0,
          reads.mean() / 1000.0, static_cast<double>(reads.p999()) / 1000.0};
}

int Run() {
  workload::PrintHeader(
      "Fig 10 - YCSB over 24 KV instances, 12 fragmented SSDs",
      "Gimbal (SIGCOMM'21) Figure 10",
      "Gimbal highest throughput on every workload (~1.3-2.1x), lowest "
      "avg and p99.9 read latency; A/F gain most, C least");

  const workload::YcsbWorkload workloads[] = {
      workload::YcsbWorkload::kA, workload::YcsbWorkload::kB,
      workload::YcsbWorkload::kC, workload::YcsbWorkload::kD,
      workload::YcsbWorkload::kF};

  Table thpt("(a) Throughput (KIOPS)");
  thpt.Columns({"workload", "reflex", "parda", "flashfq", "gimbal"});
  Table avg("(b) Average read latency (us)");
  avg.Columns({"workload", "reflex", "parda", "flashfq", "gimbal"});
  Table tail("(c) p99.9 read latency (us)");
  tail.Columns({"workload", "reflex", "parda", "flashfq", "gimbal"});

  const Scheme order[] = {Scheme::kReflex, Scheme::kParda, Scheme::kFlashFq,
                          Scheme::kGimbal};
  for (auto wl : workloads) {
    std::vector<std::string> r1{ToString(wl)}, r2{ToString(wl)},
        r3{ToString(wl)};
    for (Scheme s : order) {
      RunResult r = RunOne(s, wl);
      r1.push_back(Table::Num(r.kiops));
      r2.push_back(Table::Num(r.avg_read_us));
      r3.push_back(Table::Num(r.p999_read_us));
    }
    thpt.Row(r1);
    avg.Row(r2);
    tail.Row(r3);
  }
  thpt.Print();
  avg.Print();
  tail.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
