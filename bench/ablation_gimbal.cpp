// Ablation study (beyond the paper's figures): how much each of Gimbal's
// design choices contributes, isolating the mechanisms §3 motivates.
//
//   dynamic threshold  - vs a fixed 2 ms threshold (§3.2 argues fixed
//                        thresholds miss small-IO congestion)
//   dual token bucket  - vs a single aggregate bucket (Appendix C.1:
//                        single bucket submits writes at the read rate)
//   dynamic write cost - vs the static worst-case cost (§3.4: static cost
//                        forfeits the SSD's write-buffer optimization)
//   aggressive probe   - beta=8 vs beta=1 recovery after pattern shifts
#include "bench_util.h"

namespace gimbal::bench {
namespace {

struct MixResult {
  double rd_mbps;
  double wr_mbps;
  double rd_p99_us;
  double wr_p99_us;
};

MixResult RunMix(core::GimbalParams params, SsdCondition cond,
                 uint32_t io_bytes) {
  TestbedConfig cfg = MicroConfig(Scheme::kGimbal, cond);
  cfg.gimbal = params;
  Testbed bed(cfg);
  AddWorkers(bed, PaperSpec(io_bytes, false, 0), 8, 1);
  AddWorkers(bed, PaperSpec(io_bytes, true, 0), 8, 101);
  // Quick (golden) config: shorter windows, full variant matrix.
  if (Quick()) {
    bed.Run(Milliseconds(100), Milliseconds(250));
  } else {
    bed.Run(Milliseconds(400), Seconds(1));
  }
  const uint64_t rd = WorkerBytes(bed, 0, 8);
  const uint64_t wr = WorkerBytes(bed, 8, 8);
  LatencyHistogram rl = MergedLatency(bed, IoType::kRead, 0, 8);
  LatencyHistogram wl = MergedLatency(bed, IoType::kWrite, 8, 8);
  return {BytesToMiB(rd) / ToSec(bed.measured()),
          BytesToMiB(wr) / ToSec(bed.measured()),
          static_cast<double>(rl.p99()) / 1000.0,
          static_cast<double>(wl.p99()) / 1000.0};
}

void Report(Table& t, const char* label, const MixResult& r) {
  t.Row({label, Table::Num(r.rd_mbps), Table::Num(r.wr_mbps),
         Table::Num(r.rd_p99_us), Table::Num(r.wr_p99_us)});
}

int Run() {
  workload::PrintHeader(
      "Ablation - contribution of Gimbal's design choices",
      "Gimbal (SIGCOMM'21) §3.2-3.4 design arguments (extension)",
      "full Gimbal should dominate each crippled variant on the axis its "
      "mechanism targets");

  core::GimbalParams full;

  {
    Table t("Fragmented SSD, 8 x 4KB read + 8 x 4KB write");
    t.Columns({"variant", "rd_MBps", "wr_MBps", "rd_p99_us", "wr_p99_us"});
    Report(t, "full gimbal", RunMix(full, SsdCondition::kFragmented, 4096));

    core::GimbalParams fixed_thresh = full;  // ~fixed 2ms threshold
    fixed_thresh.thresh_min = Microseconds(1990);
    fixed_thresh.thresh_max = Microseconds(2010);
    fixed_thresh.alpha_t = 0.0;
    Report(t, "fixed 2ms threshold",
           RunMix(fixed_thresh, SsdCondition::kFragmented, 4096));

    core::GimbalParams static_cost = full;  // write cost pinned at worst
    static_cost.write_cost_delta = 0.0;
    Report(t, "static write cost",
           RunMix(static_cost, SsdCondition::kFragmented, 4096));

    core::GimbalParams slow_probe = full;
    slow_probe.beta = 1.0;
    Report(t, "beta=1 (slow probe)",
           RunMix(slow_probe, SsdCondition::kFragmented, 4096));
    t.Print();
  }

  {
    Table t("Clean SSD, 8 x 128KB read + 8 x 128KB write");
    t.Columns({"variant", "rd_MBps", "wr_MBps", "rd_p99_us", "wr_p99_us"});
    Report(t, "full gimbal", RunMix(full, SsdCondition::kClean, 131072));

    core::GimbalParams static_cost = full;
    static_cost.write_cost_delta = 0.0;
    Report(t, "static write cost",
           RunMix(static_cost, SsdCondition::kClean, 131072));

    // Single-bucket approximation: one huge shared cap means writes draw
    // from the aggregate rate (the failure mode Appendix C.1 describes).
    core::GimbalParams single_bucket = full;
    single_bucket.bucket_cap_bytes = 16ull << 20;
    Report(t, "quasi-single bucket (16MB cap)",
           RunMix(single_bucket, SsdCondition::kClean, 131072));
    t.Print();
  }
  return 0;
}

const RegisterFigure kFigure(__FILE__, Run);

}  // namespace
}  // namespace gimbal::bench
