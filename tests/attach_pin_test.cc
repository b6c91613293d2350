// Sink-wiring pin: one fixed-seed run that reaches every instrumented
// component — target, Gimbal switch (DRR, rate controller, latency
// monitors, token bucket, write-cost estimator), SSD model, fault injector
// and health machines, rack network, KV blobstore/db, lock manager and
// transaction coordinator — with metrics/trace and the invariant checker
// attached. It pins which metric series exist and how many invariant
// checks ran, so a component that silently loses its metrics sink or its
// checker (or attaches with the wrong label) fails here even when every
// figure's stdout is unchanged.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "kv/cluster.h"
#include "kv/txn.h"
#include "obs/obs.h"

namespace gimbal::kv {
namespace {

// Series keys as "name,kind,run,tenant,ssd", in registry order.
constexpr const char* kPinnedKeys = R"(client.completed,counter,gimbal,1,0
client.completed,counter,gimbal,2,1
client.completed,counter,gimbal,3,2
client.completed,counter,gimbal,4,3
client.completed_bytes,counter,gimbal,1,0
client.completed_bytes,counter,gimbal,2,1
client.completed_bytes,counter,gimbal,3,2
client.completed_bytes,counter,gimbal,4,3
client.failed,counter,gimbal,1,0
client.failed,counter,gimbal,2,1
client.failed,counter,gimbal,3,2
client.failed,counter,gimbal,4,3
drr.orphan_completions,counter,gimbal,,0
drr.orphan_completions,counter,gimbal,,1
drr.orphan_completions,counter,gimbal,,2
drr.orphan_completions,counter,gimbal,,3
drr.pass_exhausted,counter,gimbal,,0
drr.pass_exhausted,counter,gimbal,,1
drr.pass_exhausted,counter,gimbal,,2
drr.pass_exhausted,counter,gimbal,,3
fabric.target.admitted,counter,gimbal,1,0
fabric.target.admitted,counter,gimbal,3,2
fabric.target.admitted_bytes,counter,gimbal,1,0
fabric.target.admitted_bytes,counter,gimbal,3,2
fault.device_failed_ios,counter,gimbal,,0
fault.device_failed_ios,counter,gimbal,,1
fault.device_failed_ios,counter,gimbal,,2
fault.device_failed_ios,counter,gimbal,,3
fault.link.delayed,counter,gimbal,,
fault.link.dropped,counter,gimbal,,
fault.media_errors,counter,gimbal,,0
fault.media_errors,counter,gimbal,,1
fault.media_errors,counter,gimbal,,2
fault.media_errors,counter,gimbal,,3
fault.stalled_ios,counter,gimbal,,0
fault.stalled_ios,counter,gimbal,,1
fault.stalled_ios,counter,gimbal,,2
fault.stalled_ios,counter,gimbal,,3
gimbal.congestion.signals,counter,gimbal,,0
gimbal.congestion.signals,counter,gimbal,,1
gimbal.congestion.signals,counter,gimbal,,2
gimbal.congestion.signals,counter,gimbal,,3
gimbal.credit.grants,counter,gimbal,,0
gimbal.credit.grants,counter,gimbal,,1
gimbal.credit.grants,counter,gimbal,,2
gimbal.credit.grants,counter,gimbal,,3
gimbal.credit.last,gauge,gimbal,1,0
gimbal.credit.last,gauge,gimbal,3,2
gimbal.ewma_ns.read,gauge,gimbal,,0
gimbal.ewma_ns.read,gauge,gimbal,,1
gimbal.ewma_ns.read,gauge,gimbal,,2
gimbal.ewma_ns.read,gauge,gimbal,,3
gimbal.ewma_ns.write,gauge,gimbal,,0
gimbal.ewma_ns.write,gauge,gimbal,,1
gimbal.ewma_ns.write,gauge,gimbal,,2
gimbal.ewma_ns.write,gauge,gimbal,,3
gimbal.overload.events,counter,gimbal,,0
gimbal.overload.events,counter,gimbal,,1
gimbal.overload.events,counter,gimbal,,2
gimbal.overload.events,counter,gimbal,,3
gimbal.pacing.stalls,counter,gimbal,,0
gimbal.pacing.stalls,counter,gimbal,,1
gimbal.pacing.stalls,counter,gimbal,,2
gimbal.pacing.stalls,counter,gimbal,,3
gimbal.queue_depth,gauge,gimbal,,0
gimbal.queue_depth,gauge,gimbal,,1
gimbal.queue_depth,gauge,gimbal,,2
gimbal.queue_depth,gauge,gimbal,,3
gimbal.rate.completion_bps,gauge,gimbal,,0
gimbal.rate.completion_bps,gauge,gimbal,,1
gimbal.rate.completion_bps,gauge,gimbal,,2
gimbal.rate.completion_bps,gauge,gimbal,,3
gimbal.rate.target_bps,gauge,gimbal,,0
gimbal.rate.target_bps,gauge,gimbal,,1
gimbal.rate.target_bps,gauge,gimbal,,2
gimbal.rate.target_bps,gauge,gimbal,,3
gimbal.state.read,gauge,gimbal,,0
gimbal.state.read,gauge,gimbal,,1
gimbal.state.read,gauge,gimbal,,2
gimbal.state.read,gauge,gimbal,,3
gimbal.state.write,gauge,gimbal,,0
gimbal.state.write,gauge,gimbal,,1
gimbal.state.write,gauge,gimbal,,2
gimbal.state.write,gauge,gimbal,,3
gimbal.thresh_ns.read,gauge,gimbal,,0
gimbal.thresh_ns.read,gauge,gimbal,,1
gimbal.thresh_ns.read,gauge,gimbal,,2
gimbal.thresh_ns.read,gauge,gimbal,,3
gimbal.thresh_ns.write,gauge,gimbal,,0
gimbal.thresh_ns.write,gauge,gimbal,,1
gimbal.thresh_ns.write,gauge,gimbal,,2
gimbal.thresh_ns.write,gauge,gimbal,,3
gimbal.write_cost,gauge,gimbal,,0
gimbal.write_cost,gauge,gimbal,,1
gimbal.write_cost,gauge,gimbal,,2
gimbal.write_cost,gauge,gimbal,,3
initiator.late_completions,counter,gimbal,1,0
initiator.late_completions,counter,gimbal,2,1
initiator.late_completions,counter,gimbal,3,2
initiator.late_completions,counter,gimbal,4,3
initiator.retries,counter,gimbal,1,0
initiator.retries,counter,gimbal,2,1
initiator.retries,counter,gimbal,3,2
initiator.retries,counter,gimbal,4,3
initiator.submitted,counter,gimbal,1,0
initiator.submitted,counter,gimbal,2,1
initiator.submitted,counter,gimbal,3,2
initiator.submitted,counter,gimbal,4,3
initiator.timeouts,counter,gimbal,1,0
initiator.timeouts,counter,gimbal,2,1
initiator.timeouts,counter,gimbal,3,2
initiator.timeouts,counter,gimbal,4,3
kv.degraded_writes,counter,gimbal,0,
kv.dirty_replicas,gauge,gimbal,0,
kv.failover_reads,counter,gimbal,0,
kv.rebuild_bytes,counter,gimbal,0,
kv.recoveries,counter,gimbal,0,
kv.wal_retries,counter,gimbal,0,
policy.completed,counter,gimbal,1,0
policy.completed,counter,gimbal,3,2
policy.completed_bytes,counter,gimbal,1,0
policy.completed_bytes,counter,gimbal,3,2
policy.dispatched,counter,gimbal,1,0
policy.dispatched,counter,gimbal,3,2
policy.failed,counter,gimbal,1,0
policy.failed,counter,gimbal,3,2
policy.latency.device_ns,histogram,gimbal,1,0
policy.latency.device_ns,histogram,gimbal,3,2
policy.latency.target_ns,histogram,gimbal,1,0
policy.latency.target_ns,histogram,gimbal,3,2
rack.node.drops,gauge,gimbal,,
rack.node.uplink_bytes,gauge,gimbal,,0
rack.node.uplink_bytes,gauge,gimbal,,1
rack.uplink.bytes,gauge,gimbal,,
ssd.buffer.used_bytes,gauge,gimbal,,0
ssd.buffer.used_bytes,gauge,gimbal,,1
ssd.buffer.used_bytes,gauge,gimbal,,2
ssd.buffer.used_bytes,gauge,gimbal,,3
ssd.gc.blocks_erased,counter,gimbal,,0
ssd.gc.blocks_erased,counter,gimbal,,1
ssd.gc.blocks_erased,counter,gimbal,,2
ssd.gc.blocks_erased,counter,gimbal,,3
ssd.gc.invocations,counter,gimbal,,0
ssd.gc.invocations,counter,gimbal,,1
ssd.gc.invocations,counter,gimbal,,2
ssd.gc.invocations,counter,gimbal,,3
ssd.gc.pages_relocated,counter,gimbal,,0
ssd.gc.pages_relocated,counter,gimbal,,1
ssd.gc.pages_relocated,counter,gimbal,,2
ssd.gc.pages_relocated,counter,gimbal,,3
ssd.health,gauge,gimbal,,0
ssd.health,gauge,gimbal,,1
ssd.health,gauge,gimbal,,2
ssd.health,gauge,gimbal,,3
ssd.read.bytes,counter,gimbal,,0
ssd.read.bytes,counter,gimbal,,1
ssd.read.bytes,counter,gimbal,,2
ssd.read.bytes,counter,gimbal,,3
ssd.read.commands,counter,gimbal,,0
ssd.read.commands,counter,gimbal,,1
ssd.read.commands,counter,gimbal,,2
ssd.read.commands,counter,gimbal,,3
ssd.write.bytes,counter,gimbal,,0
ssd.write.bytes,counter,gimbal,,1
ssd.write.bytes,counter,gimbal,,2
ssd.write.bytes,counter,gimbal,,3
ssd.write.commands,counter,gimbal,,0
ssd.write.commands,counter,gimbal,,1
ssd.write.commands,counter,gimbal,,2
ssd.write.commands,counter,gimbal,,3
txn.aborts,counter,gimbal,0,
txn.commits,counter,gimbal,0,
txn.retries,counter,gimbal,0,
txn.wait_queue_depth,gauge,gimbal,0,
txn.wounds,counter,gimbal,0,
)";
constexpr size_t kPinnedSeries = 175;
constexpr uint64_t kPinnedChecks = 52715;
constexpr size_t kPinnedTraceEvents = 13055;

struct PinOutcome {
  std::vector<std::string> series;  // "name,kind,run,tenant,ssd", sorted
  uint64_t checks_run = 0;
  size_t trace_events = 0;
};

PinOutcome RunPinnedBed() {
  check::InvariantChecker chk(/*fail_fast=*/false);
  obs::Observability obs;
  obs.tracer.Enable(1u << 20);

  KvClusterConfig cfg;
  cfg.testbed.num_ssds = 4;
  cfg.testbed.nodes = 2;  // rack fabric: the network's uplink checks run
  cfg.testbed.target.cores = 2;
  cfg.testbed.scheme = workload::Scheme::kGimbal;
  cfg.testbed.ssd.logical_bytes = 128ull << 20;
  cfg.testbed.condition = workload::SsdCondition::kClean;
  cfg.testbed.check = &chk;
  cfg.testbed.obs = &obs;
  cfg.testbed.fault_seed = 7;
  cfg.testbed.faults.media_errors.push_back(
      {0, Milliseconds(10), Milliseconds(40), 0.2, Microseconds(150)});
  cfg.testbed.faults.failures.push_back(
      {2, Milliseconds(20), Milliseconds(50)});
  cfg.hba.backend_bytes = 128ull << 20;
  cfg.db.memtable_bytes = 256 * 1024;
  cfg.db.sstable_target_bytes = 256 * 1024;
  cfg.db.level1_bytes = 1 << 20;
  KvCluster cluster(cfg);

  KvCluster::Instance& inst = cluster.AddInstance();
  TxnCoordinator coord(cluster.sim(), *inst.db);
  coord.Attach({&obs, &chk, inst.id});
  workload::TpccSpec spec;
  spec.warehouses = 1;
  spec.seed = 11;
  TxnClient client(cluster.sim(), coord, spec, /*concurrency=*/4);

  client.Start();
  cluster.sim().RunUntil(Milliseconds(80));
  client.Stop();
  cluster.sim().RunUntil(Milliseconds(300));
  for (auto& ini : cluster.bed().initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  cluster.sim().Run();
  cluster.bed().FlushObservability();
  EXPECT_TRUE(chk.CheckDrained());
  EXPECT_TRUE(chk.ok());
  EXPECT_GT(client.stats().committed, 0u);

  PinOutcome out;
  out.checks_run = chk.checks_run();
  out.trace_events = obs.tracer.size();
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  // CSV rows come out in the registry's sorted key order; keep the label
  // columns (name, kind, run, tenant, ssd) and drop unit and values.
  std::istringstream csv(obs.metrics.ToCsv());
  std::string line;
  std::getline(csv, line);  // header
  while (std::getline(csv, line)) {
    std::vector<std::string> cells;
    std::istringstream row(line);
    std::string cell;
    while (std::getline(row, cell, ',')) cells.push_back(cell);
    if (cells.size() < 6) continue;
    // Left out so the pin reads the same with and without this deleted,
    // never-incremented series.
    if (cells[0] == "kv.lost_writes") continue;
    out.series.push_back(cells[0] + "," + cells[1] + "," + cells[3] + "," +
                         cells[4] + "," + cells[5]);
  }
  return out;
}

TEST(AttachPin, EveryComponentKeepsItsSinks) {
  const PinOutcome o = RunPinnedBed();
  std::string joined;
  for (const std::string& s : o.series) joined += s + "\n";
  EXPECT_EQ(o.series.size(), kPinnedSeries);
  EXPECT_EQ(joined, kPinnedKeys);
  EXPECT_EQ(o.checks_run, kPinnedChecks);
  EXPECT_EQ(o.trace_events, kPinnedTraceEvents);
}

}  // namespace
}  // namespace gimbal::kv
