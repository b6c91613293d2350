// Figure 7: fairness (f-Util) under mixed workloads for the four schemes.
//   (a/d) clean SSD, 16 x 4KB-read workers + 4 x 128KB-read workers
//   (b/e) clean SSD, 16 x 128KB sequential read + 16 x 128KB random write
//   (c/f) fragmented SSD, 16 x 4KB random read + 16 x 4KB random write
//
// Paper shape: Gimbal's f-Utils sit closest to 1.0 in every mix; ReFlex
// equalizes per-IO bandwidth across sizes (128KB under-served); FlashFQ's
// linear model gives read ~= write bandwidth; Parda collapses on
// fragmented read/write.
#include "bench_util.h"

namespace gimbal::bench {
namespace {

struct Group {
  const char* label;
  FioSpec spec;
  int workers;
};

void RunMix(const char* title, const char* key, SsdCondition cond, Group a,
            Group b) {
  std::printf("\n### %s\n", title);
  Table bw("Per-class results");
  bw.Columns({"scheme", std::string(a.label) + "_MBps",
              std::string(b.label) + "_MBps", std::string(a.label) + "_ios",
              std::string(b.label) + "_ios", std::string(a.label) + "_fUtil",
              std::string(b.label) + "_fUtil"});
  for (Scheme s : workload::kAllSchemes) {
    TestbedConfig cfg = MicroConfig(s, cond);
    // Distinct metric series per (scheme, mix); e.g. run="gimbal:sizes".
    cfg.run_label = std::string(ToString(s)) + ":" + key;
    // Standalone maxima for the f-Util denominators. Quick (golden) runs
    // shrink every window; the f-Util ordering across schemes survives.
    const Tick sa_warm = Quick() ? Milliseconds(100) : Milliseconds(300);
    const Tick sa_meas = Quick() ? Milliseconds(150) : Milliseconds(500);
    double sa = workload::StandaloneBandwidth(cfg, a.spec, sa_warm, sa_meas);
    double sb = workload::StandaloneBandwidth(cfg, b.spec, sa_warm, sa_meas);
    Testbed bed(cfg);
    AddWorkers(bed, a.spec, a.workers, 1);
    AddWorkers(bed, b.spec, b.workers, 101);
    if (Quick()) {
      bed.Run(Milliseconds(100), Milliseconds(250));
    } else {
      bed.Run(Milliseconds(400), Seconds(1));
    }
    const int total = a.workers + b.workers;
    uint64_t bytes_a = 0, bytes_b = 0, ios_a = 0, ios_b = 0;
    for (int i = 0; i < a.workers; ++i) {
      bytes_a += bed.workers()[static_cast<size_t>(i)]->stats().total_bytes();
      ios_a += bed.workers()[static_cast<size_t>(i)]->stats().total_ios();
    }
    for (int i = a.workers; i < total; ++i) {
      bytes_b += bed.workers()[static_cast<size_t>(i)]->stats().total_bytes();
      ios_b += bed.workers()[static_cast<size_t>(i)]->stats().total_ios();
    }
    double bps_a = RateBps(bytes_a, bed.measured()) / a.workers;
    double bps_b = RateBps(bytes_b, bed.measured()) / b.workers;
    // The _ios columns count client-observed completions and equal the sum
    // of this run's client.completed metric (see docs/OBSERVABILITY.md).
    bw.Row({ToString(s), Table::MBps(bps_a * a.workers),
            Table::MBps(bps_b * b.workers), std::to_string(ios_a),
            std::to_string(ios_b),
            Table::Num(workload::FUtil(bps_a, sa, total), 2),
            Table::Num(workload::FUtil(bps_b, sb, total), 2)});
  }
  bw.Print();
}

int Run() {
  workload::PrintHeader(
      "Fig 7 - Fairness (f-Util) in mixed workloads",
      "Gimbal (SIGCOMM'21) Figure 7",
      "Gimbal closest to f-Util=1.0 across size and type mixes; baselines "
      "deviate by large factors");

  {
    Group small{"4KB_rd", PaperSpec(4096, false, 0), 16};
    Group big{"128KB_rd", PaperSpec(131072, false, 0), 4};
    RunMix("(a/d) Clean SSD: 16 x 4KB read + 4 x 128KB read", "sizes",
           SsdCondition::kClean, small, big);
  }
  {
    FioSpec rd = PaperSpec(131072, false, 0);
    rd.sequential = true;  // paper: 128KB sequential read
    Group read{"seq_rd", rd, 16};
    FioSpec wr = PaperSpec(131072, true, 0);
    wr.sequential = false;  // paper: 128KB random write
    Group write{"rnd_wr", wr, 16};
    RunMix("(b/e) Clean SSD: 16 x 128KB seq read + 16 x 128KB rand write",
           "types", SsdCondition::kClean, read, write);
  }
  {
    Group read{"rnd_rd", PaperSpec(4096, false, 0), 16};
    Group write{"rnd_wr", PaperSpec(4096, true, 0), 16};
    RunMix("(c/f) Fragmented SSD: 16 x 4KB read + 16 x 4KB write", "frag",
           SsdCondition::kFragmented, read, write);
  }
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
