// Figure 17 (Appendix B): latency impulse response as offered load grows
// past the device's throughput capacity, with and without Gimbal's
// congestion control.
//
// Paper shape: without control, average latency explodes once the
// 4KB+128KB read mix exceeds capacity; with Gimbal the delay stays in a
// stable band while bandwidth stays near the device maximum.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

void Timeline(Scheme scheme) {
  std::printf("\n### scheme = %s\n", ToString(scheme));
  TestbedConfig cfg = MicroConfig(scheme, SsdCondition::kClean);
  Testbed bed(cfg);
  // 4 workers of each shape exist; they start in waves to raise load.
  const int kWaves = 4;
  for (int i = 0; i < kWaves; ++i) {
    FioSpec small = PaperSpec(4096, false, static_cast<uint64_t>(i) + 1);
    small.queue_depth = 32;
    bed.AddWorker(small);
    FioSpec big = PaperSpec(131072, false, static_cast<uint64_t>(i) + 101);
    big.queue_depth = 4;
    bed.AddWorker(big);
  }
  auto& sim = bed.sim();
  // Quick (golden) config: compress the wave timeline 4x — the latency
  // divergence between vanilla and Gimbal still shows.
  const double ph = Quick() ? 0.25 : 1.0;
  for (int wave = 0; wave < kWaves; ++wave) {
    sim.At(Seconds(ph * wave) + 1, [&bed, wave]() {
      bed.workers()[static_cast<size_t>(2 * wave)]->Start();
      bed.workers()[static_cast<size_t>(2 * wave + 1)]->Start();
    });
  }

  Table t("Timeline (500 ms samples)");
  t.Columns({"t_sec", "active_workers", "agg_MBps", "lat4k_us",
             "lat128k_us"});
  std::vector<uint64_t> last_bytes(bed.workers().size(), 0);
  std::vector<LatencyHistogram> last_hist;  // unused; windows via deltas
  Tick step = Quick() ? Milliseconds(125) : Milliseconds(500);
  uint64_t last4k_ios = 0, last4k_sum = 0;
  (void)last4k_ios;
  (void)last4k_sum;
  LatencyHistogram prev4k, prev128k;
  for (Tick now = 0; now < static_cast<Tick>(ph * Seconds(4.5)); now += step) {
    sim.RunUntil(now + step);
    uint64_t delta = 0;
    int active = 0;
    for (size_t i = 0; i < bed.workers().size(); ++i) {
      uint64_t b = bed.workers()[i]->stats().total_bytes();
      delta += b - last_bytes[i];
      last_bytes[i] = b;
      if (bed.workers()[i]->running()) ++active;
    }
    // Windowed mean latency: difference of cumulative histograms.
    double lat4k = 0, lat128k = 0;
    {
      LatencyHistogram small, big;
      for (size_t i = 0; i < bed.workers().size(); ++i) {
        auto& h = bed.workers()[i]->stats().read_latency;
        if (bed.workers()[i]->spec().io_bytes == 4096) {
          small.Merge(h);
        } else {
          big.Merge(h);
        }
      }
      auto windowed_mean = [](const LatencyHistogram& cur,
                              LatencyHistogram& prev) {
        uint64_t n = cur.count() - prev.count();
        double sum = cur.mean() * static_cast<double>(cur.count()) -
                     prev.mean() * static_cast<double>(prev.count());
        prev = cur;
        return n > 0 ? sum / static_cast<double>(n) : 0.0;
      };
      lat4k = windowed_mean(small, prev4k) / 1000.0;
      lat128k = windowed_mean(big, prev128k) / 1000.0;
    }
    t.Row({Table::Num(ToSec(now + step), 1), std::to_string(active),
           Table::Num(BytesToMiB(delta) / ToSec(step)), Table::Num(lat4k),
           Table::Num(lat128k)});
  }
  t.Print();
}

int Run() {
  workload::PrintHeader(
      "Fig 17 - Latency under growing 4KB+128KB read load",
      "Gimbal (SIGCOMM'21) Figure 17 / Appendix B",
      "vanilla latency ramps sharply once load exceeds capacity; Gimbal "
      "holds the delay in a stable band at near-max bandwidth");
  Timeline(Scheme::kVanilla);
  Timeline(Scheme::kGimbal);
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
