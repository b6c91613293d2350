// §5.8 Generalization: Gimbal on a different SSD (Intel P3600-like 2-bit
// MLC: lower 128K read bandwidth, higher random-write throughput), with
// Thresh_max retuned to 3 ms as the paper does.
//
// Paper shape: f-Utils stay in the same band as on the DCT983 —
// clean read/write ~0.63/0.72, fragmented read/write ~0.58/0.90.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

void RunCondition(const char* label, SsdCondition cond, uint32_t io_bytes) {
  TestbedConfig cfg = MicroConfig(Scheme::kGimbal, cond);
  cfg.ssd = ssd::SsdConfig::IntelP3600Like();
  cfg.ssd.logical_bytes = 512ull << 20;
  cfg.gimbal.thresh_max = Milliseconds(3);  // §5.8 retune
  cfg.gimbal.write_cost_worst = 7.0;        // MLC asymmetry is milder

  FioSpec rd = PaperSpec(io_bytes, false, 0);
  rd.sequential = (cond == SsdCondition::kClean);
  FioSpec wr = PaperSpec(io_bytes, true, 0);
  double sa = workload::StandaloneBandwidth(cfg, rd);
  double sb = workload::StandaloneBandwidth(cfg, wr);

  Testbed bed(cfg);
  AddWorkers(bed, rd, 16, 1);
  AddWorkers(bed, wr, 16, 101);
  bed.Run(Milliseconds(400), Seconds(1));
  double rd_per = RateBps(WorkerBytes(bed, 0, 16), bed.measured()) / 16;
  double wr_per = RateBps(WorkerBytes(bed, 16, 16), bed.measured()) / 16;
  Table t(label);
  t.Columns({"class", "agg_MBps", "f_util"});
  t.Row({"read", Table::MBps(rd_per * 16),
         Table::Num(workload::FUtil(rd_per, sa, 32), 2)});
  t.Row({"write", Table::MBps(wr_per * 16),
         Table::Num(workload::FUtil(wr_per, sb, 32), 2)});
  t.Print();
}

int Run() {
  workload::PrintHeader(
      "Generalization - Gimbal on an Intel P3600-like MLC SSD",
      "Gimbal (SIGCOMM'21) §5.8",
      "f-Util bands comparable to the DCT983: clean ~0.6-0.7, fragmented "
      "read ~0.6 / write ~0.9");
  RunCondition("Clean condition (128KB IOs, Thresh_max=3ms)",
               SsdCondition::kClean, 131072);
  RunCondition("Fragmented condition (4KB IOs, Thresh_max=3ms)",
               SsdCondition::kFragmented, 4096);
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
