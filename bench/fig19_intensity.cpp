// Figure 19 (Appendix D): two competing streams with identical shape but
// stream1 at twice stream2's queue depth, sweeping the IO size.
//
// Paper shape: the more intense stream takes ~2x the bandwidth for random
// reads and ~1.8x for sequential writes, across sizes.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

int Run() {
  workload::PrintHeader(
      "Fig 19 - IO intensity interference (stream1 QD = 2 x stream2 QD)",
      "Gimbal (SIGCOMM'21) Figure 19 / Appendix D",
      "the deeper stream takes ~2x bandwidth regardless of IO size");

  Table t("Bandwidth (MB/s) on a vanilla target, clean SSD");
  t.Columns({"io_size", "s1_rnd_rd", "s2_rnd_rd", "rd_ratio", "s1_seq_wr",
             "s2_seq_wr", "wr_ratio"});
  for (uint32_t kb : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    std::vector<std::string> row{std::to_string(kb) + "KB"};
    std::vector<double> ratios;
    for (bool is_write : {false, true}) {
      TestbedConfig cfg = MicroConfig(Scheme::kVanilla, SsdCondition::kClean);
      Testbed bed(cfg);
      uint32_t qd2 = kb >= 128 ? 4u : 16u;
      FioSpec s1;
      s1.io_bytes = kb * 1024;
      s1.read_ratio = is_write ? 0.0 : 1.0;
      s1.sequential = is_write;
      s1.queue_depth = qd2 * 2;
      s1.seed = 1 + g_seed;
      FioSpec s2 = s1;
      s2.queue_depth = qd2;
      s2.seed = 2 + g_seed;
      FioWorker& w1 = bed.AddWorker(s1);
      FioWorker& w2 = bed.AddWorker(s2);
      bed.Run(Milliseconds(200), Milliseconds(500));
      double b1 = WorkerMBps(w1, bed.measured());
      double b2 = WorkerMBps(w2, bed.measured());
      row.push_back(Table::Num(b1));
      row.push_back(Table::Num(b2));
      ratios.push_back(b2 > 0 ? b1 / b2 : 0);
      if (!is_write) row.push_back(Table::Num(ratios.back(), 2));
    }
    row.push_back(Table::Num(ratios.back(), 2));
    t.Row(row);
  }
  t.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
