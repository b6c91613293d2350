// Figure 4: multi-tenant interference on an unprotected (vanilla) SmartNIC
// JBOF. A victim flow (4KB random read, QD32) shares one SSD with
// neighbours of varying size/intensity/type.
//
// Paper shape: higher-intensity neighbours always win (128KB-QD8 takes
// ~3x the victim); write neighbours crush the victim (~59% loss vs the
// same-shape read neighbour).
#include "bench_util.h"

namespace gimbal::bench {
namespace {

struct Neighbor {
  const char* label;
  uint32_t io_bytes;
  uint32_t qd;
  bool write;
};

int Run() {
  workload::PrintHeader(
      "Fig 4 - Multi-tenant interference (vanilla target, clean SSD)",
      "Gimbal (SIGCOMM'21) Figure 4",
      "neighbour intensity dictates share; write neighbours cost the "
      "victim ~59% vs read neighbours");

  const Neighbor neighbors[] = {
      {"4KB-RD QD32", 4096, 32, false},   {"4KB-RD QD128", 4096, 128, false},
      {"128KB-RD QD1", 131072, 1, false}, {"128KB-RD QD8", 131072, 8, false},
      {"4KB-WR QD32", 4096, 32, true},    {"4KB-WR QD128", 4096, 128, true},
  };

  Table t("Bandwidth (MB/s): victim = 4KB random read QD32");
  t.Columns({"neighbor", "victim_bw", "neighbor_bw", "ratio"});
  for (const Neighbor& n : neighbors) {
    TestbedConfig cfg = MicroConfig(Scheme::kVanilla, SsdCondition::kClean);
    Testbed bed(cfg);
    FioSpec victim;
    victim.io_bytes = 4096;
    victim.queue_depth = 32;
    victim.seed = 1 + g_seed;
    FioWorker& wv = bed.AddWorker(victim);
    FioSpec nb;
    nb.io_bytes = n.io_bytes;
    nb.queue_depth = n.qd;
    nb.read_ratio = n.write ? 0.0 : 1.0;
    nb.seed = 2 + g_seed;
    FioWorker& wn = bed.AddWorker(nb);
    // Quick (golden) config: shorter windows, same matrix — the dominance
    // ordering survives, exact bandwidths do not.
    if (Quick()) {
      bed.Run(Milliseconds(50), Milliseconds(100));
    } else {
      bed.Run(Milliseconds(200), Milliseconds(500));
    }
    double v = WorkerMBps(wv, bed.measured());
    double w = WorkerMBps(wn, bed.measured());
    t.Row({n.label, Table::Num(v), Table::Num(w), Table::Num(w / v, 2)});
  }
  t.Print();
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
