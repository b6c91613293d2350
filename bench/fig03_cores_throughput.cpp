// Figure 3: maximum 4 KiB random-read and sequential-write throughput as
// the number of target cores grows, for server and SmartNIC JBOFs (4 SSDs).
//
// Paper shape: the server saturates the storage (~1.5M read KIOPS) with 2
// cores; the SmartNIC needs ~3 of its wimpy cores; 1 core suffices for
// large IOs on both.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

double Kiops(fabric::TargetConfig target, int cores, bool is_write) {
  TestbedConfig cfg = MicroConfig(Scheme::kVanilla, SsdCondition::kClean);
  cfg.target = target;
  cfg.target.cores = cores;
  cfg.num_ssds = 4;
  cfg.ssd.logical_bytes = 256ull << 20;
  Testbed bed(cfg);
  for (int s = 0; s < 4; ++s) {
    // Two deep workers per SSD to exceed device concurrency.
    for (int i = 0; i < 2; ++i) {
      FioSpec spec;
      spec.io_bytes = 4096;
      spec.read_ratio = is_write ? 0.0 : 1.0;
      spec.sequential = is_write;
      spec.queue_depth = 96;
      spec.seed = static_cast<uint64_t>(s * 2 + i + 1) + g_seed;
      bed.AddWorker(spec, s);
    }
  }
  bed.Run(Milliseconds(100), Milliseconds(300));
  uint64_t ios = 0;
  for (auto& w : bed.workers()) ios += w->stats().total_ios();
  return static_cast<double>(ios) / ToSec(bed.measured()) / 1000.0;
}

int Run() {
  workload::PrintHeader(
      "Fig 3 - Throughput vs target core count (4 SSDs, 4KB IOs)",
      "Gimbal (SIGCOMM'21) Figure 3",
      "server saturates ~1.5M read IOPS with 2 cores; SmartNIC needs ~3 "
      "cores; both flat beyond the knee");

  Table t("Aggregated throughput (KIOPS)");
  t.Columns({"cores", "server_rd", "smartnic_rd", "server_wr",
             "smartnic_wr"});
  for (int cores = 1; cores <= 8; ++cores) {
    t.Row({std::to_string(cores),
           Table::Num(Kiops(fabric::TargetConfig::ServerLike(), cores, false)),
           Table::Num(
               Kiops(fabric::TargetConfig::SmartNicLike(), cores, false)),
           Table::Num(Kiops(fabric::TargetConfig::ServerLike(), cores, true)),
           Table::Num(
               Kiops(fabric::TargetConfig::SmartNicLike(), cores, true))});
  }
  t.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
