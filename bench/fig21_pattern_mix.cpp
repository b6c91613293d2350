// Figure 21 (Appendix D): read stream bandwidth standalone vs mixed with
// a same-shape write stream, sweeping the IO size.
//
// Paper shape: mixing costs the read stream ~60-73% of its standalone
// bandwidth across sizes.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

double ReadMBps(uint32_t io_bytes, bool sequential, bool with_writer) {
  TestbedConfig cfg = MicroConfig(Scheme::kVanilla, SsdCondition::kClean);
  Testbed bed(cfg);
  FioSpec rd;
  rd.io_bytes = io_bytes;
  rd.sequential = sequential;
  rd.queue_depth = io_bytes >= 131072 ? 8 : 32;
  rd.seed = 1 + g_seed;
  FioWorker& w = bed.AddWorker(rd);
  if (with_writer) {
    FioSpec wr = rd;
    wr.read_ratio = 0.0;
    wr.seed = 2 + g_seed;
    bed.AddWorker(wr);
  }
  bed.Run(Milliseconds(200), Milliseconds(500));
  return WorkerMBps(w, bed.measured());
}

int Run() {
  workload::PrintHeader(
      "Fig 21 - Read bandwidth standalone vs mixed with writes",
      "Gimbal (SIGCOMM'21) Figure 21 / Appendix D",
      "read keeps only ~27-39% of standalone bandwidth when a same-shape "
      "write stream joins");

  Table t("Read-stream bandwidth (MB/s), vanilla target, clean SSD");
  t.Columns({"io_size", "rnd_alone", "rnd_mixed", "seq_alone", "seq_mixed"});
  for (uint32_t kb : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    uint32_t bytes = kb * 1024;
    t.Row({std::to_string(kb) + "KB",
           Table::Num(ReadMBps(bytes, false, false)),
           Table::Num(ReadMBps(bytes, false, true)),
           Table::Num(ReadMBps(bytes, true, false)),
           Table::Num(ReadMBps(bytes, true, true))});
  }
  t.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
