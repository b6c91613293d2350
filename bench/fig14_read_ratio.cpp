// Figure 14 (Appendix A): 4 KiB IO bandwidth as the read ratio sweeps
// 0..100%, on clean vs fragmented SSDs (raw device behaviour, vanilla
// target).
//
// Paper shape: fragmented write-only reaches ~17% of clean write-only;
// adding 5% writes to a fragmented read stream drops total IOPS ~40%+.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

int Run() {
  workload::PrintHeader(
      "Fig 14 - 4KB bandwidth vs read ratio, clean vs fragmented",
      "Gimbal (SIGCOMM'21) Figure 14 / Appendix A",
      "fragmented write path collapses to ~17% of clean; small write "
      "fractions disproportionately hurt fragmented total throughput");

  Table t("Bandwidth (MB/s), 4 workers x QD32, 4KB random");
  t.Columns({"read_pct", "clean_rd", "clean_wr", "frag_rd", "frag_wr"});
  for (int pct : {0, 5, 10, 20, 40, 60, 80, 95, 100}) {
    std::vector<std::string> row{std::to_string(pct)};
    for (SsdCondition cond :
         {SsdCondition::kClean, SsdCondition::kFragmented}) {
      TestbedConfig cfg = MicroConfig(Scheme::kVanilla, cond);
      Testbed bed(cfg);
      FioSpec spec;
      spec.io_bytes = 4096;
      spec.queue_depth = 32;
      spec.read_ratio = pct / 100.0;
      AddWorkers(bed, spec, 4, 1);
      // The clean condition is inherently transient under random writes
      // (it is *being* fragmented); our device is ~1000x smaller than the
      // paper's 960 GB drive, so the transient is proportionally shorter.
      // Measure the clean rows over a short early window.
      if (cond == SsdCondition::kClean && pct < 100) {
        bed.Run(Milliseconds(20), Milliseconds(80));
      } else {
        bed.Run(Milliseconds(500), Seconds(1));
      }
      uint64_t rd = 0, wr = 0;
      for (auto& w : bed.workers()) {
        rd += w->stats().read_bytes;
        wr += w->stats().write_bytes;
      }
      row.push_back(Table::MBps(RateBps(rd, bed.measured())));
      row.push_back(Table::MBps(RateBps(wr, bed.measured())));
    }
    t.Row(row);
  }
  t.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
