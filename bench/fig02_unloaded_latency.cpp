// Figure 2: unloaded read/write latency vs IO request size, SmartNIC JBOF
// vs server JBOF.
//
// Paper shape: random-read latencies are nearly identical up to 64 KiB
// (~1% gap) and diverge ~20% at 128/256 KiB; sequential writes differ by
// only a few microseconds everywhere.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

double UnloadedLatencyUs(fabric::TargetConfig target, uint32_t io_kb,
                         bool is_write) {
  TestbedConfig cfg = MicroConfig(Scheme::kVanilla, SsdCondition::kClean);
  cfg.target = target;
  Testbed bed(cfg);
  FioSpec spec;
  spec.io_bytes = io_kb * 1024;
  spec.read_ratio = is_write ? 0.0 : 1.0;
  spec.sequential = is_write;
  spec.queue_depth = 1;  // unloaded
  FioWorker& w = bed.AddWorker(spec);
  bed.Run(Milliseconds(50), Milliseconds(300));
  auto& h = is_write ? w.stats().write_latency : w.stats().read_latency;
  return h.mean() / 1000.0;
}

int Run() {
  workload::PrintHeader(
      "Fig 2 - Unloaded latency vs IO size (QD1)",
      "Gimbal (SIGCOMM'21) Figure 2",
      "SmartNIC ~= server for <=64KB reads; ~20% slower at 128/256KB; "
      "writes within a few microseconds everywhere");

  Table t("Average latency (us), random read & sequential write");
  t.Columns({"io_size", "server_rd", "smartnic_rd", "rd_gap%", "server_wr",
             "smartnic_wr", "wr_gap_us"});
  for (uint32_t kb : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    double srv_rd = UnloadedLatencyUs(fabric::TargetConfig::ServerLike(), kb,
                                      false);
    double nic_rd = UnloadedLatencyUs(fabric::TargetConfig::SmartNicLike(),
                                      kb, false);
    double srv_wr = UnloadedLatencyUs(fabric::TargetConfig::ServerLike(), kb,
                                      true);
    double nic_wr = UnloadedLatencyUs(fabric::TargetConfig::SmartNicLike(),
                                      kb, true);
    t.Row({std::to_string(kb) + "KB", Table::Num(srv_rd), Table::Num(nic_rd),
           Table::Num(100.0 * (nic_rd - srv_rd) / srv_rd),
           Table::Num(srv_wr), Table::Num(nic_wr),
           Table::Num(nic_wr - srv_wr)});
  }
  t.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
