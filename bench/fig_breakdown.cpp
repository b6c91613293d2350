// §2.2 latency breakdown: "the most time-consuming part for both reads and
// writes is the NVMe command execution phase... For a 4KB/128KB random
// read, it contributes 92.4%/86.1% (server) and 88.8%/92.2% (SmartNIC) of
// the target-side latency."
//
// The fabric records both the device latency (SSD submit->complete) and
// the target latency (ingress->completion sent); their ratio is the NVMe
// command execution share.
#include "bench_util.h"

#include "fabric/initiator.h"

namespace gimbal::bench {
namespace {

double DeviceShare(fabric::TargetConfig target, uint32_t io_bytes,
                   bool is_write) {
  TestbedConfig cfg = MicroConfig(Scheme::kVanilla, SsdCondition::kClean);
  cfg.target = target;
  Testbed bed(cfg);
  fabric::Initiator& init = bed.AddInitiator(0);
  double device_ns = 0, target_ns = 0;
  uint64_t n = 0;
  // QD1 stream, as in the paper's unloaded breakdown.
  std::function<void(uint64_t)> issue = [&](uint64_t i) {
    if (i >= 400) return;
    init.Submit(is_write ? IoType::kWrite : IoType::kRead,
                (i * 37 % 1024) * static_cast<uint64_t>(io_bytes), io_bytes,
                IoPriority::kNormal,
                [&, i](const IoCompletion& cpl, Tick) {
                  device_ns += static_cast<double>(cpl.device_latency);
                  target_ns += static_cast<double>(cpl.target_latency);
                  ++n;
                  issue(i + 1);
                });
  };
  issue(0);
  bed.sim().Run();
  return n > 0 && target_ns > 0 ? 100.0 * device_ns / target_ns : 0.0;
}

int Run() {
  workload::PrintHeader(
      "§2.2 - NVMe command execution share of target-side latency",
      "Gimbal (SIGCOMM'21) §2.2 breakdown discussion",
      "the SSD execution phase dominates (~86-92%) on both server and "
      "SmartNIC, which is why their latencies are close");

  Table t("Device-execution share of target latency (%)");
  t.Columns({"io", "server_read", "smartnic_read", "server_write",
             "smartnic_write"});
  for (uint32_t kb : {4u, 128u}) {
    t.Row({std::to_string(kb) + "KB",
           Table::Num(DeviceShare(fabric::TargetConfig::ServerLike(),
                                  kb * 1024, false)),
           Table::Num(DeviceShare(fabric::TargetConfig::SmartNicLike(),
                                  kb * 1024, false)),
           Table::Num(DeviceShare(fabric::TargetConfig::ServerLike(),
                                  kb * 1024, true)),
           Table::Num(DeviceShare(fabric::TargetConfig::SmartNicLike(),
                                  kb * 1024, true))});
  }
  t.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
