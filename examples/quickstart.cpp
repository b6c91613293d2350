// Quickstart: build a one-SSD disaggregated storage node with the Gimbal
// storage switch, attach two tenants, push traffic and read the per-SSD
// virtual view.
//
//   $ ./examples/quickstart
//
// This walks the public API at its lowest useful level — simulator,
// network, target, switch, initiators — without the Testbed convenience
// wrapper, so it doubles as a tour of the library's layers.
#include <cstdio>

#include "core/gimbal_switch.h"
#include "fabric/initiator.h"
#include "fabric/network.h"
#include "fabric/target.h"
#include "obs/obs.h"
#include "sim/simulator.h"
#include "ssd/ssd.h"

using namespace gimbal;

int main() {
  // 1. A deterministic discrete-event simulator owns all timing.
  sim::Simulator sim;

  // Optional: a metrics registry + event tracer every layer below reports
  // into (docs/OBSERVABILITY.md catalogues what). The bench binaries wire
  // this up from --metrics-out=/--trace-out=; here we attach one by hand.
  obs::Observability obs;
  obs.tracer.Enable();

  // 2. The SmartNIC JBOF: 100 Gbps fabric, ARM-class target cores, one
  //    NVMe SSD (page-mapped FTL + NAND timing model), preconditioned
  //    clean.
  fabric::Network net(sim);
  fabric::Target target(sim, net, fabric::TargetConfig::SmartNicLike());
  target.Attach({.obs = &obs});  // before AddPipeline: reaches the policy
  ssd::Ssd ssd_dev(sim, ssd::SsdConfig::SamsungDct983Like());
  ssd_dev.Attach({.obs = &obs, .label = /*ssd index*/ 0});
  ssd_dev.PreconditionClean();

  // 3. The Gimbal storage switch orchestrates the SSD's pipeline:
  //    delay-based congestion control, dual token bucket, write-cost
  //    estimation, virtual-slot DRR, credit flow control.
  auto gimbal_switch = std::make_unique<core::GimbalSwitch>(sim, ssd_dev);
  core::GimbalSwitch* sw = gimbal_switch.get();
  int pipeline = target.AddPipeline(std::move(gimbal_switch));

  // 4. Two tenants connect through credit-throttled initiators.
  fabric::Initiator reader(sim, net, target, pipeline, /*tenant=*/1,
                           fabric::ThrottleMode::kCredit);
  fabric::Initiator writer(sim, net, target, pipeline, /*tenant=*/2,
                           fabric::ThrottleMode::kCredit);

  // 5. Closed loops: tenant 1 reads 4 KiB randomly, tenant 2 writes.
  uint64_t read_bytes = 0, write_bytes = 0;
  uint64_t lfsr = 0xACE1u;
  std::function<void()> issue_read = [&]() {
    lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xB400u);
    reader.Submit(IoType::kRead, (lfsr % 100000) * 4096, 4096,
                  IoPriority::kHigh,
                  [&](const IoCompletion& cpl, Tick) {
                    read_bytes += cpl.length;
                    issue_read();
                  });
  };
  std::function<void()> issue_write = [&]() {
    lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xB400u);
    writer.Submit(IoType::kWrite, (lfsr % 100000) * 4096, 4096,
                  IoPriority::kNormal,
                  [&](const IoCompletion& cpl, Tick) {
                    write_bytes += cpl.length;
                    issue_write();
                  });
  };
  for (int i = 0; i < 16; ++i) issue_read();
  for (int i = 0; i < 16; ++i) issue_write();

  // 6. Run one simulated second and inspect the virtual view (§3.7).
  sim.RunUntil(Seconds(1));
  core::VirtualView v1 = sw->View(1);
  core::VirtualView v2 = sw->View(2);
  std::printf("after 1s simulated:\n");
  std::printf("  tenant1 (reads) : %6.1f MB/s, credits=%u\n",
              BytesToMiB(read_bytes), v1.credits);
  std::printf("  tenant2 (writes): %6.1f MB/s, credits=%u\n",
              BytesToMiB(write_bytes), v2.credits);
  std::printf("  switch: state=%s target_rate=%.1f MB/s write_cost=%.2f\n",
              ToString(v1.state),
              sw->rate_controller().target_rate() / (1024.0 * 1024.0),
              sw->write_cost().cost());
  std::printf("  device: WA=%.2f gc_runs=%llu\n",
              ssd_dev.ftl().stats().WriteAmplification(),
              static_cast<unsigned long long>(ssd_dev.counters().gc_runs));

  // 7. Everything above was also recorded by the observability layer:
  //    dump the metrics snapshot and a chrome://tracing-loadable trace.
  std::printf("  obs: %zu metric series, %zu trace events\n",
              obs.metrics.size(), obs.tracer.size());
  obs.metrics.WriteFile("quickstart_metrics.json");
  obs.tracer.WriteFile("quickstart_trace.json");
  std::printf("  wrote quickstart_metrics.json and quickstart_trace.json "
              "(load the trace in chrome://tracing)\n");
  return 0;
}
