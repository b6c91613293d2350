// Extension bench backing §2.3's critique of timeslice IO schedulers
// (Argon/CFQ): time quanta with exclusive device access give isolation but
// "violate responsiveness under high consolidation and ignore that the IO
// capacity is not constant". Eight 4 KiB readers on one clean SSD.
//
// Expectation: the timeslice scheduler's tail latency scales with
// (#tenants x quantum) — orders of magnitude above Gimbal at equal or
// lower bandwidth.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

struct Row {
  double agg_mbps;
  double p50_us;
  double p99_us;
};

Row RunScheme(Scheme scheme, Tick quantum) {
  TestbedConfig cfg = MicroConfig(scheme, SsdCondition::kClean);
  cfg.timeslice.quantum = quantum;
  Testbed bed(cfg);
  FioSpec spec;
  spec.io_bytes = 4096;
  spec.queue_depth = 16;
  AddWorkers(bed, spec, 8, 1);
  bed.Run(Milliseconds(300), Milliseconds(600));
  LatencyHistogram all = MergedLatency(bed, IoType::kRead);
  return {AggregateMBps(bed), static_cast<double>(all.p50()) / 1000.0,
          static_cast<double>(all.p99()) / 1000.0};
}

int Run() {
  workload::PrintHeader(
      "Ablation - timeslice scheduling vs Gimbal (8 x 4KB readers)",
      "Gimbal (SIGCOMM'21) §2.3 discussion (extension)",
      "timeslice tails scale with #tenants x quantum; Gimbal matches its "
      "bandwidth at millisecond-lower tails");

  Table t("8 tenants, clean SSD");
  t.Columns({"scheme", "agg_MBps", "p50_us", "p99_us"});
  for (Tick q : {Milliseconds(1), Milliseconds(2), Milliseconds(4),
                 Milliseconds(8)}) {
    Row r = RunScheme(Scheme::kTimeslice, q);
    t.Row({"timeslice q=" + Table::Num(ToMs(q), 0) + "ms",
           Table::Num(r.agg_mbps), Table::Num(r.p50_us),
           Table::Num(r.p99_us)});
  }
  Row g = RunScheme(Scheme::kGimbal, Milliseconds(2));
  t.Row({"gimbal", Table::Num(g.agg_mbps), Table::Num(g.p50_us),
         Table::Num(g.p99_us)});
  Row v = RunScheme(Scheme::kVanilla, Milliseconds(2));
  t.Row({"vanilla", Table::Num(v.agg_mbps), Table::Num(v.p50_us),
         Table::Num(v.p99_us)});
  t.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
