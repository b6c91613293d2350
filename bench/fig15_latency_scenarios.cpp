// Figure 15 (Appendix A): unloaded (QD1) random-read latency vs IO size
// under four scenarios: vanilla (clean), fragmented, 70/30 read-write mix,
// and QD8.
//
// Paper shape: fragmentation (+52%), write mixing (+84%) and concurrency
// (+81%) all raise read latency, larger IOs degrading the most.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

double ReadLatencyUs(SsdCondition cond, uint32_t io_bytes, double read_ratio,
                     uint32_t qd) {
  TestbedConfig cfg = MicroConfig(Scheme::kVanilla, cond);
  Testbed bed(cfg);
  FioSpec spec;
  spec.io_bytes = io_bytes;
  spec.read_ratio = read_ratio;
  spec.queue_depth = qd;
  FioWorker& w = bed.AddWorker(spec);
  bed.Run(Milliseconds(100), Milliseconds(400));
  return w.stats().read_latency.mean() / 1000.0;
}

int Run() {
  workload::PrintHeader(
      "Fig 15 - Random read latency vs IO size under four scenarios",
      "Gimbal (SIGCOMM'21) Figure 15 / Appendix A",
      "fragmented / 70-30 mix / QD8 all raise read latency vs vanilla; "
      "large IOs suffer the most");

  Table t("Average read latency (us)");
  t.Columns({"io_size", "vanilla", "fragmented", "70/30_RW", "QD8"});
  for (uint32_t kb : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    uint32_t bytes = kb * 1024;
    t.Row({std::to_string(kb) + "KB",
           Table::Num(ReadLatencyUs(SsdCondition::kClean, bytes, 1.0, 1)),
           Table::Num(ReadLatencyUs(SsdCondition::kFragmented, bytes, 1.0, 1)),
           Table::Num(ReadLatencyUs(SsdCondition::kClean, bytes, 0.7, 1)),
           Table::Num(ReadLatencyUs(SsdCondition::kClean, bytes, 1.0, 8))});
  }
  t.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
