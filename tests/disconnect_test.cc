// Tenant lifecycle tests: graceful disconnect under load — queued IOs fail
// back, inflight IOs drain, scheduler state is reaped, and survivors
// inherit the freed share. The baseline policies (ReFlex, FlashFQ,
// Timeslice) keep the same contract.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <set>

#include "baselines/flashfq_policy.h"
#include "baselines/reflex_policy.h"
#include "baselines/timeslice_policy.h"
#include "check/invariants.h"
#include "core/gimbal_switch.h"
#include "ssd/null_device.h"
#include "workload/runner.h"

namespace gimbal {
namespace {

using workload::Scheme;
using workload::Testbed;
using workload::TestbedConfig;

TEST(Disconnect, SchedulerFailsQueuedAndReapsState) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(100));
  core::GimbalSwitch sw(sim, dev);
  int ok_completions = 0, failed = 0;
  sw.set_completion_fn([&](const IoRequest&, const IoCompletion& cpl) {
    (cpl.ok() ? ok_completions : failed)++;
  });
  uint64_t id = 0;
  for (int i = 0; i < 200; ++i) {
    IoRequest r;
    r.id = ++id;
    r.tenant = 1;
    r.type = IoType::kRead;
    r.length = 4096;
    sw.OnRequest(r);
  }
  // Some are inflight/charged, the rest queued. Disconnect now.
  sw.OnTenantDisconnect(1);
  sim.Run();
  EXPECT_EQ(ok_completions + failed, 200);
  EXPECT_GT(failed, 0);
  EXPECT_GT(ok_completions, 0);  // inflight ones completed normally
  // All state reaped once the last inflight IO drained.
  EXPECT_EQ(sw.scheduler().tenant_count(), 0u);
  EXPECT_EQ(sw.io_outstanding(), 0u);
}

TEST(Disconnect, ChurnWithLateCompletionsLeavesNoGhostState) {
  // Regression: a completion arriving after its tenant's state was reaped
  // (disconnect + last inflight drained) used to re-create the tenant via
  // the GetTenant path — a ghost entry in tenants_/busy_flags_ that
  // nothing ever erased, so long-running targets leaked one entry per
  // churned tenant. Late/duplicate completions must be dropped and
  // counted, never resurrect state.
  core::GimbalParams p;
  core::WriteCostEstimator cost(p);
  core::DrrScheduler sched(p, cost);
  uint64_t id = 0;
  for (TenantId t = 1; t <= 2000; ++t) {
    // Two IOs: one goes inflight, one stays queued at disconnect.
    for (int k = 0; k < 2; ++k) {
      IoRequest r;
      r.id = ++id;
      r.tenant = t;
      r.type = IoType::kRead;
      r.length = 4096;
      sched.Enqueue(r);
    }
    auto s = sched.Dequeue();
    ASSERT_TRUE(s.has_value());
    std::vector<IoRequest> failed = sched.Disconnect(t);
    EXPECT_EQ(failed.size(), 1u);
    // The inflight IO's completion lands after the disconnect and reaps
    // the tenant; its duplicate (a retransmitted completion capsule) then
    // finds no state and must be dropped as an orphan.
    sched.OnCompletion(t, s->slot_id);
    sched.OnCompletion(t, s->slot_id);
  }
  EXPECT_EQ(sched.tenant_count(), 0u);
  EXPECT_EQ(sched.orphan_completions(), 2000u);
  EXPECT_EQ(sched.pass_exhausted(), 0u);
  EXPECT_FALSE(sched.Dequeue().has_value());
}

TEST(Disconnect, UnknownTenantIsNoop) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30);
  core::GimbalSwitch sw(sim, dev);
  sw.OnTenantDisconnect(42);
  EXPECT_EQ(sw.scheduler().tenant_count(), 0u);
}

TEST(Disconnect, SurvivorInheritsBandwidth) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.ssd.logical_bytes = 256ull << 20;
  Testbed bed(cfg);
  workload::FioSpec spec;
  spec.io_bytes = 4096;
  spec.queue_depth = 32;
  spec.seed = 1;
  workload::FioWorker& a = bed.AddWorker(spec);
  spec.seed = 2;
  workload::FioWorker& b = bed.AddWorker(spec);
  a.Start();
  b.Start();
  bed.sim().RunUntil(Milliseconds(300));
  uint64_t a_mid = a.stats().total_bytes();
  // Tenant B leaves; A should speed up.
  b.Stop();
  bed.sim().RunUntil(Milliseconds(400));  // drain B's outstanding
  uint64_t a_before = a.stats().total_bytes();
  double shared_rate = static_cast<double>(a_mid) / 0.3;
  bed.sim().RunUntil(Milliseconds(700));
  double solo_rate = static_cast<double>(a.stats().total_bytes() - a_before) / 0.3;
  EXPECT_GT(solo_rate, 1.3 * shared_rate);
}

TEST(Disconnect, InitiatorShutdownFailsPendingAndStopsSubmits) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.use_null_device = true;
  Testbed bed(cfg);
  fabric::Initiator& init =
      bed.AddInitiator(0, fabric::ThrottleMode::kCredit);
  int ok = 0, failed = 0;
  for (int i = 0; i < 100; ++i) {
    init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal,
                [&](const IoCompletion& cpl, Tick) {
                  (cpl.ok() ? ok : failed)++;
                });
  }
  // Credit throttle (initial 8) keeps most queued locally.
  EXPECT_GT(init.queued(), 0u);
  init.Shutdown();
  bed.sim().Run();
  EXPECT_EQ(ok + failed, 100);
  EXPECT_GT(failed, 0);
  // Post-shutdown submits fail immediately.
  bool late_failed = false;
  init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal,
              [&](const IoCompletion& cpl, Tick) {
                late_failed = !cpl.ok();
              });
  bed.sim().Run();
  EXPECT_TRUE(late_failed);
  EXPECT_EQ(init.inflight(), 0u);
}

TEST(Disconnect, TargetPathReapsTenant) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.ssd.logical_bytes = 128ull << 20;
  Testbed bed(cfg);
  fabric::Initiator& init = bed.AddInitiator(0);
  for (int i = 0; i < 50; ++i) {
    init.Submit(IoType::kRead, static_cast<uint64_t>(i) * 4096, 4096,
                IoPriority::kNormal, nullptr);
  }
  bed.sim().RunUntil(Milliseconds(5));
  init.Shutdown();
  bed.sim().Run();
  core::GimbalSwitch* sw = bed.gimbal_switch(0);
  ASSERT_NE(sw, nullptr);
  EXPECT_EQ(sw->scheduler().tenant_count(), 0u);
}

// A null device that records the offset of every command it receives.
class RecordingDevice : public ssd::NullDevice {
 public:
  using NullDevice::NullDevice;
  void Submit(const ssd::DeviceIo& io, CompletionFn done) override {
    offsets.insert(io.offset);
    NullDevice::Submit(io, std::move(done));
  }
  std::set<uint64_t> offsets;
};

// Heap bytes in use (glibc), mmapped chunks included.
size_t HeapInUseBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

using PolicyFactory = std::function<std::unique_ptr<core::PolicyBase>(
    sim::Simulator&, ssd::BlockDevice&)>;

// One tenant at a time submits 64 reads, more than any baseline dispatches
// at once, and disconnects before the simulator runs; the target's admit
// and session-close hooks are replayed into a fail-fast checker. Queued IOs
// must come back kAborted without reaching the device, every IO must
// terminate, and 1,000 such cycles must leave the heap where it stood
// after the first 100 (the flows of departed tenants are gone).
void CheckBaselineDisconnect(const PolicyFactory& make) {
  sim::Simulator sim;
  RecordingDevice dev(sim, 1ull << 30, Microseconds(100));
  std::unique_ptr<core::PolicyBase> policy = make(sim, dev);
  check::InvariantChecker chk;
  chk.AttachSim(&sim);
  policy->AttachChecker(&chk, 0);
  std::set<uint64_t> aborted;  // offsets, this cycle
  uint64_t ok = 0, total_aborted = 0, reached_device = 0;
  policy->set_completion_fn([&](const IoRequest& req,
                                const IoCompletion& cpl) {
    if (cpl.status == IoStatus::kAborted) {
      aborted.insert(req.offset);
    } else {
      EXPECT_TRUE(cpl.ok());
      ++ok;
    }
  });
  constexpr int kCycles = 1000;
  constexpr int kIos = 64;
  size_t warm_heap = 0;
  uint64_t id = 0;
  for (int c = 0; c < kCycles; ++c) {
    if (c == 100) warm_heap = HeapInUseBytes();
    const auto tenant = static_cast<TenantId>(1 + c);
    for (int i = 0; i < kIos; ++i) {
      IoRequest r;
      r.id = ++id;
      r.tenant = tenant;
      r.type = i % 4 == 0 ? IoType::kWrite : IoType::kRead;
      r.offset = id * 4096;  // unique: identifies the IO at the device
      r.length = 4096;
      r.target_arrival = sim.now();
      chk.OnTargetAdmit(tenant, 0);
      policy->OnRequest(r);
    }
    policy->OnTenantDisconnect(tenant);
    sim.Run();
    chk.OnTargetSessionClosed(tenant, 0);
    for (uint64_t offset : aborted) reached_device += dev.offsets.count(offset);
    total_aborted += aborted.size();
    aborted.clear();
    dev.offsets.clear();
  }
  EXPECT_EQ(ok + total_aborted, id);
  EXPECT_GT(total_aborted, static_cast<uint64_t>(kCycles));
  EXPECT_EQ(reached_device, 0u);
  EXPECT_TRUE(chk.ok());
  EXPECT_EQ(chk.live_ledgers().policy, 0u);
  EXPECT_EQ(policy->device_inflight(), 0u);
  // Slack for allocator rounding; one kept flow with its queue costs
  // several KiB, so 900 leaked flows would cost megabytes.
  EXPECT_LE(HeapInUseBytes(), warm_heap + 16 * 1024);
}

TEST(Disconnect, ReflexFailsQueuedAndForgetsTenant) {
  CheckBaselineDisconnect([](sim::Simulator& sim, ssd::BlockDevice& dev) {
    return std::make_unique<baselines::ReflexPolicy>(sim, dev);
  });
}

TEST(Disconnect, FlashFqFailsQueuedAndForgetsTenant) {
  CheckBaselineDisconnect([](sim::Simulator& sim, ssd::BlockDevice& dev) {
    return std::make_unique<baselines::FlashFqPolicy>(sim, dev);
  });
}

TEST(Disconnect, TimesliceFailsQueuedAndForgetsTenant) {
  CheckBaselineDisconnect([](sim::Simulator& sim, ssd::BlockDevice& dev) {
    return std::make_unique<baselines::TimeslicePolicy>(sim, dev);
  });
}

// Tenants 1 and 2 each submit 64 IOs and tenant 1 disconnects before the
// simulator runs. The survivor must lose nothing, only tenant 1's IOs may
// abort (none of them reaching the device), and every IO must terminate.
// Tenant 1 then rejoins under the same id: the policy starts it from a
// fresh flow, so its 64 new IOs are all served.
void CheckSurvivorAndRejoin(const PolicyFactory& make) {
  sim::Simulator sim;
  RecordingDevice dev(sim, 1ull << 30, Microseconds(100));
  std::unique_ptr<core::PolicyBase> policy = make(sim, dev);
  check::InvariantChecker chk;
  chk.AttachSim(&sim);
  policy->AttachChecker(&chk, 0);
  uint64_t ok[3] = {0, 0, 0}, aborted[3] = {0, 0, 0};
  std::set<uint64_t> aborted_offsets;
  policy->set_completion_fn([&](const IoRequest& req,
                                const IoCompletion& cpl) {
    if (cpl.status == IoStatus::kAborted) {
      ++aborted[req.tenant];
      aborted_offsets.insert(req.offset);
    } else {
      EXPECT_TRUE(cpl.ok());
      ++ok[req.tenant];
    }
  });
  uint64_t id = 0;
  auto submit = [&](TenantId tenant) {
    for (int i = 0; i < 64; ++i) {
      IoRequest r;
      r.id = ++id;
      r.tenant = tenant;
      r.type = i % 4 == 0 ? IoType::kWrite : IoType::kRead;
      r.offset = id * 4096;  // unique: identifies the IO at the device
      r.length = 4096;
      r.target_arrival = sim.now();
      chk.OnTargetAdmit(tenant, 0);
      policy->OnRequest(r);
    }
  };
  submit(1);
  submit(2);
  policy->OnTenantDisconnect(1);
  sim.Run();
  chk.OnTargetSessionClosed(1, 0);
  EXPECT_EQ(ok[2], 64u);
  EXPECT_EQ(aborted[2], 0u);
  EXPECT_EQ(ok[1] + aborted[1], 64u);
  EXPECT_GT(aborted[1], 0u);
  for (uint64_t offset : aborted_offsets) {
    EXPECT_EQ(dev.offsets.count(offset), 0u) << "aborted IO reached the SSD";
  }

  ok[1] = aborted[1] = 0;
  submit(1);
  sim.Run();
  EXPECT_EQ(ok[1], 64u);
  EXPECT_EQ(aborted[1], 0u);
  EXPECT_TRUE(chk.ok());
  EXPECT_EQ(policy->device_inflight(), 0u);
}

TEST(Disconnect, ReflexServesSurvivorAndRejoinedTenant) {
  CheckSurvivorAndRejoin([](sim::Simulator& sim, ssd::BlockDevice& dev) {
    return std::make_unique<baselines::ReflexPolicy>(sim, dev);
  });
}

TEST(Disconnect, FlashFqServesSurvivorAndRejoinedTenant) {
  CheckSurvivorAndRejoin([](sim::Simulator& sim, ssd::BlockDevice& dev) {
    return std::make_unique<baselines::FlashFqPolicy>(sim, dev);
  });
}

TEST(Disconnect, TimesliceServesSurvivorAndRejoinedTenant) {
  CheckSurvivorAndRejoin([](sim::Simulator& sim, ssd::BlockDevice& dev) {
    return std::make_unique<baselines::TimeslicePolicy>(sim, dev);
  });
}

// The tenant holding the slice disconnects: the slice passes to the next
// backlogged tenant at once instead of idling out the departed tenant's
// quantum. Tenant 2 must finish its IOs long before one quantum passes.
TEST(Disconnect, TimesliceHandsTheActiveSliceOn) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(100));
  baselines::TimesliceParams params;
  baselines::TimeslicePolicy policy(sim, dev, params);
  Tick survivor_done = 0;
  uint64_t survivor_ok = 0;
  policy.set_completion_fn([&](const IoRequest& req,
                               const IoCompletion& cpl) {
    if (req.tenant != 2) return;
    EXPECT_TRUE(cpl.ok());
    ++survivor_ok;
    survivor_done = sim.now();
  });
  uint64_t id = 0;
  for (TenantId tenant = 1; tenant <= 2; ++tenant) {
    for (uint32_t i = 0; i < params.depth; ++i) {
      IoRequest r;
      r.id = ++id;
      r.tenant = tenant;
      r.type = IoType::kRead;
      r.offset = id * 4096;
      r.length = 4096;
      policy.OnRequest(r);
    }
  }
  // Tenant 1 holds the slice with a full depth in flight; tenant 2 waits.
  EXPECT_EQ(policy.device_inflight(), params.depth);
  policy.OnTenantDisconnect(1);
  sim.Run();
  EXPECT_EQ(survivor_ok, params.depth);
  // Tenant 1's IOs drain (100us), then tenant 2's run (100us more).
  EXPECT_LE(survivor_done, Microseconds(200));
  EXPECT_LT(survivor_done, params.quantum);
}

}  // namespace
}  // namespace gimbal
