// Figure 9: dynamic workload timeline. 8 rate-capped readers (200 MB/s)
// run from t=0; rate-capped writers (60 MB/s) arrive one at a time, then
// readers depart one at a time (intervals scaled down from the paper's 5 s
// to 1 s of simulated time).
//
// Paper shape: the first writer is absorbed by the SSD write buffer
// (write cost -> 1, ~70us write latency while reads sit ~1000us); as more
// writers arrive the buffer saturates, latency jumps ~10x, the write cost
// estimator climbs, and writer bandwidths converge to the fair share.
#include "bench_util.h"

#include "core/gimbal_switch.h"

namespace gimbal::bench {
namespace {

int Run() {
  workload::PrintHeader(
      "Fig 9 - Dynamic workload timeline (Gimbal, fragmented SSD)",
      "Gimbal (SIGCOMM'21) Figure 9 / §5.5",
      "first writer rides the write buffer at cost~1; once writers exceed "
      "buffer drain, write cost rises and writer bandwidth converges to "
      "the fair share");

  TestbedConfig cfg = MicroConfig(Scheme::kGimbal, SsdCondition::kFragmented);
  Testbed bed(cfg);

  const int kReaders = 8, kWriters = 8;
  for (int i = 0; i < kReaders; ++i) {
    FioSpec rd = PaperSpec(4096, false, static_cast<uint64_t>(i) + 1);
    rd.rate_cap_bps = 200.0 * 1024 * 1024;
    rd.queue_depth = 16;
    bed.AddWorker(rd);
  }
  for (int i = 0; i < kWriters; ++i) {
    FioSpec wr = PaperSpec(4096, true, static_cast<uint64_t>(i) + 101);
    wr.rate_cap_bps = 60.0 * 1024 * 1024;
    wr.queue_depth = 16;
    bed.AddWorker(wr);  // created now, started on schedule below
  }

  auto& sim = bed.sim();
  // Phase plan (scaled 5s -> 1s): writers join at 1s..8s, readers drop at
  // 9s..16s. Quick (golden) runs compress the whole timeline a further 8x
  // (also keeping the digest trace under its 4M-event cap); the
  // buffer-absorb-then-converge shape survives.
  const double ph = Quick() ? 0.125 : 1.0;
  for (int i = 0; i < kReaders; ++i) bed.workers()[static_cast<size_t>(i)]->Start();
  for (int i = 0; i < kWriters; ++i) {
    sim.At(Seconds(ph * (i + 1)), [&bed, i]() {
      bed.workers()[static_cast<size_t>(kReaders + i)]->Start();
    });
  }
  for (int i = 0; i < kReaders; ++i) {
    sim.At(Seconds(ph * (9.0 + i)), [&bed, i]() {
      bed.workers()[static_cast<size_t>(i)]->Stop();
    });
  }

  Table t("Timeline (sampled every 500 ms)");
  t.Columns({"t_sec", "rd_workers", "wr_workers", "rd_MBps_per_worker",
             "wr_MBps_per_worker", "rd_lat_us", "wr_lat_us", "write_cost"});

  std::vector<uint64_t> last_bytes(bed.workers().size(), 0);
  core::GimbalSwitch* sw = bed.gimbal_switch(0);
  const Tick step = Quick() ? Milliseconds(125) : Milliseconds(500);
  for (Tick now = 0; now < static_cast<Tick>(ph * Seconds(17)); now += step) {
    sim.RunUntil(now + step);
    int rd_n = 0, wr_n = 0;
    uint64_t rd_bytes = 0, wr_bytes = 0;
    LatencyHistogram rd_lat, wr_lat;
    for (size_t i = 0; i < bed.workers().size(); ++i) {
      auto& w = *bed.workers()[i];
      uint64_t bytes = w.stats().total_bytes();
      uint64_t delta = bytes - last_bytes[i];
      last_bytes[i] = bytes;
      if (i < kReaders) {
        if (w.running()) {
          ++rd_n;
          rd_bytes += delta;
        }
      } else if (w.running()) {
        ++wr_n;
        wr_bytes += delta;
      }
    }
    // Latencies: merge over the sampling window is not tracked per window;
    // report the switch's live EWMA device latencies instead (the paper's
    // Fig 9 lower panel plots raw device latency).
    double rd_ewma = sw->rate_controller()
                         .monitor(IoType::kRead)
                         .ewma_latency() / 1000.0;
    double wr_ewma = sw->rate_controller()
                         .monitor(IoType::kWrite)
                         .ewma_latency() / 1000.0;
    t.Row({Table::Num(ToSec(now + step), 1), std::to_string(rd_n),
           std::to_string(wr_n),
           Table::Num(rd_n ? BytesToMiB(rd_bytes) / ToSec(step) / rd_n : 0),
           Table::Num(wr_n ? BytesToMiB(wr_bytes) / ToSec(step) / wr_n : 0),
           Table::Num(rd_ewma), Table::Num(wr_ewma),
           Table::Num(sw->write_cost().cost(), 2)});
  }
  t.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
