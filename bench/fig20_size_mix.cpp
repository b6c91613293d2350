// Figure 20 (Appendix D): a 4 KiB stream1 (random/sequential x read/write)
// competing with a stream2 whose IO size sweeps upward.
//
// Paper shape: the larger stream2's IOs, the less bandwidth 4 KiB stream1
// keeps (e.g. random read: ~850 MB/s head-to-head at 4K, but only
// ~91 MB/s against a 64K competitor).
#include "bench_util.h"

namespace gimbal::bench {
namespace {

int Run() {
  workload::PrintHeader(
      "Fig 20 - 4KB stream1 bandwidth vs competitor IO size",
      "Gimbal (SIGCOMM'21) Figure 20 / Appendix D",
      "large competing IOs dominate: stream1's share falls steeply with "
      "stream2's size");

  Table t("Stream1 (4KB) bandwidth (MB/s), vanilla target, clean SSD");
  t.Columns({"s2_size", "rnd_rd", "seq_rd", "rnd_wr", "seq_wr"});
  for (uint32_t kb : {4u, 8u, 16u, 32u, 64u, 128u}) {
    std::vector<std::string> row{std::to_string(kb) + "KB"};
    for (auto [rnd, wr] : {std::pair{true, false}, {false, false},
                           {true, true}, {false, true}}) {
      TestbedConfig cfg = MicroConfig(Scheme::kVanilla, SsdCondition::kClean);
      Testbed bed(cfg);
      FioSpec s1;
      s1.io_bytes = 4096;
      s1.read_ratio = wr ? 0.0 : 1.0;
      s1.sequential = !rnd;
      s1.queue_depth = 32;
      s1.seed = 1 + g_seed;
      FioSpec s2 = s1;
      s2.io_bytes = kb * 1024;
      s2.queue_depth = 32;
      s2.seed = 2 + g_seed;
      FioWorker& w1 = bed.AddWorker(s1);
      bed.AddWorker(s2);
      bed.Run(Milliseconds(200), Milliseconds(500));
      row.push_back(Table::Num(WorkerMBps(w1, bed.measured())));
    }
    t.Row(row);
  }
  t.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
