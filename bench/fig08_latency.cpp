// Figure 8: end-to-end average / p99 / p99.9 latency per IO type under the
// Fig 7 read+write mixes (16 workers each).
//
// Paper shape: Gimbal cuts p99 read/write latency ~50-60% vs Parda;
// FlashFQ and ReFlex (no flow control) sit an order of magnitude higher
// at the tail.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

void RunCase(const char* title, SsdCondition cond, uint32_t io_bytes) {
  std::printf("\n### %s\n", title);
  Table t("Latency (us) by scheme");
  t.Columns({"scheme", "rd_avg", "rd_p99", "rd_p999", "wr_avg", "wr_p99",
             "wr_p999"});
  for (Scheme s : workload::kAllSchemes) {
    TestbedConfig cfg = MicroConfig(s, cond);
    Testbed bed(cfg);
    FioSpec reader = PaperSpec(io_bytes, false, 0);
    reader.sequential = (cond == SsdCondition::kClean);
    AddWorkers(bed, reader, 16, 1);
    AddWorkers(bed, PaperSpec(io_bytes, true, 0), 16, 101);
    bed.Run(Milliseconds(400), Seconds(1));
    LatencyHistogram rd = MergedLatency(bed, IoType::kRead, 0, 16);
    LatencyHistogram wr = MergedLatency(bed, IoType::kWrite, 16, 16);
    t.Row({ToString(s), Table::Us(rd.mean()),
           Table::Us(static_cast<double>(rd.p99())),
           Table::Us(static_cast<double>(rd.p999())), Table::Us(wr.mean()),
           Table::Us(static_cast<double>(wr.p99())),
           Table::Us(static_cast<double>(wr.p999()))});
  }
  t.Print();
}

int Run() {
  workload::PrintHeader(
      "Fig 8 - Read/write latency, 16+16 workers",
      "Gimbal (SIGCOMM'21) Figure 8",
      "Gimbal's p99/p99.9 well below Parda (~50-60% lower) and far below "
      "the flow-control-free FlashFQ/ReFlex");
  RunCase("(a) Clean SSD, 128KB IOs", SsdCondition::kClean, 131072);
  RunCase("(b) Fragmented SSD, 4KB IOs", SsdCondition::kFragmented, 4096);
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
