// Figure 16 (§2.4): achievable bandwidth as per-IO processing cost is
// added on the SmartNIC target's cores (all 8 cores, 4 SSDs).
//
// Paper shape: 4KB reads tolerate ~1us extra before losing bandwidth,
// 4KB writes ~5us, 128KB reads ~5us, 128KB writes ~10us; beyond that
// bandwidth falls off roughly as 1/cost.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

double GBps(uint32_t io_bytes, bool is_write, Tick added) {
  TestbedConfig cfg = MicroConfig(Scheme::kVanilla, SsdCondition::kClean);
  cfg.num_ssds = 4;
  cfg.ssd.logical_bytes = 256ull << 20;
  cfg.target.cores = 8;
  cfg.target.added_cost = added;
  Testbed bed(cfg);
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < 2; ++i) {
      FioSpec spec = PaperSpec(io_bytes, is_write,
                               static_cast<uint64_t>(s * 2 + i) + 1);
      spec.queue_depth = io_bytes >= 131072 ? 16 : 96;
      bed.AddWorker(spec, s);
    }
  }
  bed.Run(Milliseconds(150), Milliseconds(400));
  return AggregateMBps(bed) / 1024.0;
}

int Run() {
  workload::PrintHeader(
      "Fig 16 - Bandwidth vs added per-IO processing cost (4 SSDs, 8 cores)",
      "Gimbal (SIGCOMM'21) Figure 16 / §2.4",
      "small IOs tolerate ~1-5us of extra per-IO work, large IOs ~5-10us, "
      "then bandwidth decays with cost");

  Table t("Aggregated bandwidth (GB/s)");
  t.Columns({"added_us", "4KB_read", "128KB_read", "4KB_write",
             "128KB_write"});
  for (int us : {0, 1, 5, 10, 20, 40, 80, 160, 320}) {
    Tick added = Microseconds(us);
    t.Row({std::to_string(us), Table::Num(GBps(4096, false, added), 2),
           Table::Num(GBps(131072, false, added), 2),
           Table::Num(GBps(4096, true, added), 2),
           Table::Num(GBps(131072, true, added), 2)});
  }
  t.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
