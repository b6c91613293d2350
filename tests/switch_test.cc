// Focused tests for the assembled GimbalSwitch pipeline on controlled
// devices, plus cross-cutting properties (determinism, conservation).
#include <gtest/gtest.h>

#include "check/invariants.h"
#include "core/gimbal_switch.h"
#include "ssd/null_device.h"
#include "ssd/ssd.h"
#include "workload/runner.h"

namespace gimbal::core {
namespace {

IoRequest Req(uint64_t id, TenantId t, IoType type, uint32_t len,
              uint64_t offset = 0,
              IoPriority prio = IoPriority::kNormal) {
  IoRequest r;
  r.id = id;
  r.tenant = t;
  r.type = type;
  r.offset = offset;
  r.length = len;
  r.priority = prio;
  return r;
}

TEST(GimbalSwitch, CompletesEverythingOnNullDevice) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(5));
  GimbalSwitch sw(sim, dev);
  check::InvariantChecker chk(/*fail_fast=*/false);
  sw.Attach(obs::Sinks{nullptr, &chk, 0});
  uint64_t done = 0;
  sw.set_completion_fn([&](const IoRequest&, const IoCompletion&) { ++done; });
  for (uint64_t i = 0; i < 2000; ++i) {
    const TenantId tenant = static_cast<TenantId>(i % 4) + 1;
    chk.OnTargetAdmit(tenant, 0);
    sw.OnRequest(Req(i + 1, tenant, IoType::kRead, 4096, (i % 256) * 4096));
  }
  sim.Run();
  EXPECT_EQ(done, 2000u);
  // Nothing left at the device: every dispatch came back and was delivered.
  EXPECT_TRUE(chk.CheckDrained());
  EXPECT_TRUE(chk.ok());
}

TEST(GimbalSwitch, CreditPiggybackedOnCompletions) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(5));
  GimbalSwitch sw(sim, dev);
  uint32_t last_credit = 0;
  sw.set_completion_fn([&](const IoRequest&, const IoCompletion& cpl) {
    last_credit = cpl.credit;
  });
  for (uint64_t i = 0; i < 64; ++i) {
    sw.OnRequest(Req(i + 1, 1, IoType::kRead, 4096, i * 4096));
  }
  sim.Run();
  EXPECT_GT(last_credit, 0u);
  EXPECT_EQ(last_credit, sw.scheduler().CreditFor(1));
}

TEST(GimbalSwitch, ViewReflectsWriteCostSplit) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(5));
  GimbalSwitch sw(sim, dev);
  VirtualView v = sw.View(1);
  // Initial write cost = worst (9): the read headroom is 9x the write's.
  EXPECT_NEAR(v.read_headroom_bps / v.write_headroom_bps, 9.0, 1e-6);
  EXPECT_GT(v.credits, 0u);
}

TEST(GimbalSwitch, PriorityTagFastPath) {
  // With a backlog from one tenant, that tenant's high-priority requests
  // overtake its own normal-priority queue (§3.5 per-tenant priority
  // queues).
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(50));
  GimbalSwitch sw(sim, dev);
  std::vector<uint64_t> completion_order;
  sw.set_completion_fn([&](const IoRequest& r, const IoCompletion&) {
    completion_order.push_back(r.id);
  });
  for (uint64_t i = 1; i <= 40; ++i) {
    sw.OnRequest(Req(i, 1, IoType::kRead, 4096, i * 4096,
                     IoPriority::kNormal));
  }
  sw.OnRequest(Req(100, 1, IoType::kRead, 4096, 0, IoPriority::kHigh));
  sim.Run();
  auto pos = std::find(completion_order.begin(), completion_order.end(),
                       uint64_t{100});
  ASSERT_NE(pos, completion_order.end());
  // The high-priority request completes well before the backlog drains.
  EXPECT_LT(pos - completion_order.begin(), 20);
}

TEST(GimbalSwitch, DeterministicAcrossRuns) {
  auto run = []() {
    workload::TestbedConfig cfg;
    cfg.scheme = workload::Scheme::kGimbal;
    cfg.condition = workload::SsdCondition::kFragmented;
    cfg.ssd.logical_bytes = 128ull << 20;
    workload::Testbed bed(cfg);
    workload::FioSpec spec;
    spec.read_ratio = 0.8;
    spec.io_bytes = 4096;
    spec.queue_depth = 16;
    spec.seed = 5;
    workload::FioWorker& w = bed.AddWorker(spec);
    bed.Run(Milliseconds(50), Milliseconds(200));
    return std::tuple(w.stats().total_bytes(), w.stats().read_ios,
                      w.stats().read_latency.p99(),
                      bed.sim().events_executed());
  };
  EXPECT_EQ(run(), run());
}

TEST(GimbalSwitch, ByteConservationThroughFullStack) {
  workload::TestbedConfig cfg;
  cfg.scheme = workload::Scheme::kGimbal;
  cfg.ssd.logical_bytes = 128ull << 20;
  workload::Testbed bed(cfg);
  workload::FioSpec spec;
  spec.read_ratio = 0.5;
  spec.io_bytes = 16384;
  spec.queue_depth = 8;
  spec.seed = 9;
  workload::FioWorker& w = bed.AddWorker(spec);
  w.Start();
  bed.sim().RunUntil(Milliseconds(200));
  w.Stop();
  bed.sim().RunUntil(Milliseconds(400));
  ASSERT_TRUE(bed.sim().idle());
  // Client-side accounting matches the device's: every byte the worker saw
  // completed was also counted by the SSD.
  const auto& c = bed.ssd(0)->counters();
  EXPECT_EQ(w.stats().read_bytes, c.read_bytes);
  EXPECT_EQ(w.stats().write_bytes, c.write_bytes);
}

TEST(GimbalSwitch, ManyTenantsAllServed) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(20));
  GimbalSwitch sw(sim, dev);
  std::map<TenantId, int> served;
  sw.set_completion_fn([&](const IoRequest& r, const IoCompletion&) {
    ++served[r.tenant];
  });
  // 24 tenants (3x the slot threshold): everyone must still progress via
  // the min-one-slot rule.
  uint64_t id = 1;
  for (int round = 0; round < 50; ++round) {
    for (TenantId t = 1; t <= 24; ++t) {
      const uint64_t this_id = id++;
      sw.OnRequest(Req(this_id, t, IoType::kRead, 4096, (id % 128) * 4096));
    }
  }
  sim.Run();
  for (TenantId t = 1; t <= 24; ++t) {
    EXPECT_EQ(served[t], 50) << "tenant " << t;
  }
}

class SwitchWorkerSweep
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(SwitchWorkerSweep, EqualWorkersGetEqualService) {
  // Property: N identical workers sharing one Gimbal SSD end within 25% of
  // each other's bandwidth.
  auto [workers, io_bytes] = GetParam();
  workload::TestbedConfig cfg;
  cfg.scheme = workload::Scheme::kGimbal;
  cfg.ssd.logical_bytes = 256ull << 20;
  workload::Testbed bed(cfg);
  for (int i = 0; i < workers; ++i) {
    workload::FioSpec spec;
    spec.io_bytes = io_bytes;
    spec.queue_depth = io_bytes >= 131072 ? 4 : 32;
    spec.seed = static_cast<uint64_t>(i) + 1;
    bed.AddWorker(spec);
  }
  bed.Run(Milliseconds(300), Milliseconds(500));
  uint64_t lo = UINT64_MAX, hi = 0;
  for (auto& w : bed.workers()) {
    lo = std::min(lo, w->stats().total_bytes());
    hi = std::max(hi, w->stats().total_bytes());
  }
  ASSERT_GT(lo, 0u);
  EXPECT_LT(static_cast<double>(hi) / static_cast<double>(lo), 1.25);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, SwitchWorkerSweep,
    ::testing::Values(std::tuple(2, 4096u), std::tuple(4, 4096u),
                      std::tuple(8, 4096u), std::tuple(4, 131072u),
                      std::tuple(8, 131072u), std::tuple(16, 4096u)));

}  // namespace
}  // namespace gimbal::core
