// Figure 18 (Appendix B): the dynamic latency threshold chasing the EWMA
// latency (128 KiB random read, load stepping up).
//
// Paper shape: the threshold decays toward the EWMA while traffic is
// steady, and as outstanding IO grows the EWMA crosses it more and more
// often (each crossing = a congestion signal; threshold jumps halfway to
// the max).
#include "bench_util.h"

#include "core/gimbal_switch.h"

namespace gimbal::bench {
namespace {

int Run() {
  workload::PrintHeader(
      "Fig 18 - Dynamic latency threshold vs EWMA (128KB random read)",
      "Gimbal (SIGCOMM'21) Figure 18 / Appendix B",
      "threshold tracks the EWMA from above; crossings become frequent as "
      "load approaches saturation");

  TestbedConfig cfg = MicroConfig(Scheme::kGimbal, SsdCondition::kClean);
  Testbed bed(cfg);
  const int kWorkers = 8;
  FioSpec spec = PaperSpec(131072, false, 0);
  spec.queue_depth = 4;
  AddWorkers(bed, spec, kWorkers, 1);
  auto& sim = bed.sim();
  // Staggered starts raise outstanding IO over time.
  for (int i = 0; i < kWorkers; ++i) {
    sim.At(Seconds(0.4 * i) + 1, [&bed, i]() {
      bed.workers()[static_cast<size_t>(i)]->Start();
    });
  }

  core::GimbalSwitch* sw = bed.gimbal_switch(0);
  Table t("Trace (100 ms samples)");
  t.Columns({"t_sec", "workers", "ewma_us", "thresh_us", "state",
             "congestion_signals"});
  Tick step = Milliseconds(100);
  for (Tick now = 0; now < Seconds(4); now += step) {
    sim.RunUntil(now + step);
    int active = 0;
    for (auto& w : bed.workers()) {
      if (w->running()) ++active;
    }
    const auto& mon = sw->rate_controller().monitor(IoType::kRead);
    t.Row({Table::Num(ToSec(now + step), 1), std::to_string(active),
           Table::Num(mon.ewma_latency() / 1000.0),
           Table::Num(mon.threshold() / 1000.0), ToString(mon.state()),
           std::to_string(sw->congestion_signals())});
  }
  t.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
