// Figures 11 & 12: throughput and average read latency as the number of
// KV instances grows (Gimbal, same topology as Fig 10).
//
// Paper shape: A/B/D saturate around 20 instances, F around 16 (its
// read-modify-writes hit write limits first, latency +38% from 16->24);
// read-only C keeps scaling with nearly flat read latency.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

constexpr int kSsds = 6;
// Quick (golden) runs shrink the per-instance dataset with the matrix.
inline uint64_t Records() { return Quick() ? 5'000 : 20'000; }

struct Point {
  double kiops;
  double avg_read_us;
};

Point RunOne(workload::YcsbWorkload wl, int instances) {
  KvYcsbCell cell(KvConfig(Scheme::kGimbal, kSsds, SsdCondition::kFragmented,
                           std::string(workload::ToString(wl)) + ":" +
                               std::to_string(instances)),
                  wl, instances, Records(), 24);
  cell.Warmup(Quick() ? Milliseconds(100) : Milliseconds(250));
  const Tick measure = Quick() ? Milliseconds(250) : Milliseconds(500);
  cell.RunFor(measure);
  return {static_cast<double>(cell.Ops()) / ToSec(measure) / 1000.0,
          cell.Reads().mean() / 1000.0};
}

int Run() {
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

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
