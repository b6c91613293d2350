// Figure 6: device utilization under 16 same-shape workers, for the four
// schemes x {clean,fragmented} x {read,write}. Clean uses 128 KiB IOs,
// fragmented 4 KiB (§5.2).
//
// Paper shape: Gimbal ~ FlashFQ in bandwidth on all four cases, ~2.4x /
// 6.6x over ReFlex on clean read/write, ~2.6x over Parda on fragmented
// read; Gimbal's average latency far below FlashFQ's (no flow control).
#include "bench_util.h"

namespace gimbal::bench {
namespace {

struct Case {
  const char* label;
  SsdCondition cond;
  bool write;
  uint32_t io_bytes;
};

int Run() {
  workload::PrintHeader(
      "Fig 6 - Utilization with 16 workers (bandwidth & avg latency)",
      "Gimbal (SIGCOMM'21) Figure 6",
      "Gimbal ~ FlashFQ bandwidth everywhere, but with far lower latency; "
      "ReFlex collapses on clean writes (static cost model); Parda "
      "underutilizes fragmented reads");

  const Case cases[] = {
      {"C-R", SsdCondition::kClean, false, 131072},
      {"C-W", SsdCondition::kClean, true, 131072},
      {"F-R", SsdCondition::kFragmented, false, 4096},
      {"F-W", SsdCondition::kFragmented, true, 4096},
  };

  Table bw("Aggregated bandwidth (MB/s), 16 workers");
  bw.Columns({"case", "reflex", "flashfq", "parda", "gimbal"});
  Table lat("Average latency (us), 16 workers");
  lat.Columns({"case", "reflex", "flashfq", "parda", "gimbal"});

  for (const Case& c : cases) {
    std::vector<std::string> bw_row{c.label}, lat_row{c.label};
    for (Scheme s : workload::kAllSchemes) {
      TestbedConfig cfg = MicroConfig(s, c.cond);
      Testbed bed(cfg);
      const int workers = Quick() ? 8 : 16;
      AddWorkers(bed, PaperSpec(c.io_bytes, c.write, 0), workers, 1);
      if (Quick()) {
        bed.Run(Milliseconds(100), Milliseconds(200));
      } else {
        bed.Run(Milliseconds(400), Seconds(1));
      }
      bw_row.push_back(Table::Num(AggregateMBps(bed)));
      LatencyHistogram h = MergedLatency(
          bed, c.write ? IoType::kWrite : IoType::kRead);
      lat_row.push_back(Table::Num(h.mean() / 1000.0));
    }
    bw.Row(bw_row);
    lat.Row(lat_row);
  }
  bw.Print();
  lat.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
