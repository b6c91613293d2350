// Figures 22 & 23 (Appendix D): latency interference from background
// traffic of growing IO size.
//   Fig 22: 4 KiB random read avg/p99.9 vs a random/sequential write
//           stream of size 0..256 KiB.
//   Fig 23: 4 KiB sequential write avg/p99.9 vs a random/sequential read
//           stream of size 0..256 KiB.
//
// Paper shape: bigger background IOs mean worse head-of-line blocking
// (128KB bg write raises 4K read avg ~1.7x and p99.9 ~2.6x vs 4KB bg);
// the write-bg curves flatten once the writer saturates.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

struct Result {
  double avg_us;
  double p999_us;
};

Result VictimLatency(bool victim_write, uint32_t bg_kb, bool bg_sequential,
                     bool bg_write) {
  TestbedConfig cfg = MicroConfig(Scheme::kVanilla, SsdCondition::kClean);
  Testbed bed(cfg);
  FioSpec victim;
  victim.io_bytes = 4096;
  victim.read_ratio = victim_write ? 0.0 : 1.0;
  victim.sequential = victim_write;
  victim.queue_depth = 8;
  victim.seed = 1 + g_seed;
  FioWorker& w = bed.AddWorker(victim);
  if (bg_kb > 0) {
    FioSpec bg;
    bg.io_bytes = bg_kb * 1024;
    bg.read_ratio = bg_write ? 0.0 : 1.0;
    bg.sequential = bg_sequential;
    bg.queue_depth = 16;
    bg.seed = 2 + g_seed;
    bed.AddWorker(bg);
  }
  bed.Run(Milliseconds(200), Milliseconds(600));
  auto& h = victim_write ? w.stats().write_latency : w.stats().read_latency;
  return {h.mean() / 1000.0, static_cast<double>(h.p999()) / 1000.0};
}

void RunFigure(const char* title, bool victim_write) {
  std::printf("\n### %s\n", title);
  Table t("Victim latency (us) vs background IO size");
  t.Columns({"bg_size", "avg_rnd_bg", "p999_rnd_bg", "avg_seq_bg",
             "p999_seq_bg"});
  for (uint32_t kb : {0u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    // Fig 22's background is writes; Fig 23's is reads.
    bool bg_write = !victim_write;
    Result rnd = VictimLatency(victim_write, kb, false, bg_write);
    Result seq = VictimLatency(victim_write, kb, true, bg_write);
    t.Row({kb == 0 ? "none" : (std::to_string(kb) + "KB"),
           Table::Num(rnd.avg_us), Table::Num(rnd.p999_us),
           Table::Num(seq.avg_us), Table::Num(seq.p999_us)});
  }
  t.Print();
}

int Run() {
  workload::PrintHeader(
      "Fig 22/23 - Victim latency vs background traffic size",
      "Gimbal (SIGCOMM'21) Figures 22-23 / Appendix D",
      "larger background IOs raise victim avg and tail latency; curves "
      "flatten once the background stream saturates its bandwidth");
  RunFigure("Fig 22: victim = 4KB random read, background = writes", false);
  RunFigure("Fig 23: victim = 4KB sequential write, background = reads",
            true);
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
