// Tests for the NVMe-oF fabric: network serialization, the five-step
// request flow through the target, initiator flow-control modes, the
// initiator's in-flight window (completions in any order, retries, crash
// and shutdown), and the baseline policies in isolation (NULL device).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/flashfq_policy.h"
#include "baselines/parda_policy.h"
#include "baselines/reflex_policy.h"
#include "core/io_policy.h"
#include "fabric/initiator.h"
#include "fabric/network.h"
#include "fabric/target.h"
#include "ssd/null_device.h"
#include "workload/runner.h"

namespace gimbal {
namespace {

using fabric::Direction;
using fabric::Network;

TEST(Network, BaseLatencyDominatesSmallMessages) {
  sim::Simulator sim;
  Network net(sim);
  Tick arrival = -1;
  net.Send(Direction::kClientToTarget, /*ssd=*/0, 64,
           [&]() { arrival = sim.now(); });
  sim.Run();
  // 64B at 12.5 GB/s ~ 5ns serialization + 5us base.
  EXPECT_GE(arrival, Microseconds(5));
  EXPECT_LT(arrival, Microseconds(6));
}

TEST(Network, LargeMessageSerializationCost) {
  sim::Simulator sim;
  Network net(sim);
  Tick arrival = -1;
  net.Send(Direction::kTargetToClient, /*ssd=*/0, 1 << 20,
           [&]() { arrival = sim.now(); });
  sim.Run();
  // 1 MiB at 12.5 GB/s ~ 84us + 5us base.
  EXPECT_GT(arrival, Microseconds(80));
  EXPECT_LT(arrival, Microseconds(100));
}

TEST(Network, SharedLinkSerializes) {
  sim::Simulator sim;
  Network net(sim);
  Tick first = -1, second = -1;
  net.Send(Direction::kClientToTarget, /*ssd=*/0, 1 << 20,
           [&]() { first = sim.now(); });
  net.Send(Direction::kClientToTarget, /*ssd=*/0, 1 << 20,
           [&]() { second = sim.now(); });
  sim.Run();
  EXPECT_GT(second, first + Microseconds(70));  // queued behind the first
}

TEST(Network, DirectionsAreIndependent) {
  sim::Simulator sim;
  Network net(sim);
  Tick up = -1, down = -1;
  net.Send(Direction::kClientToTarget, /*ssd=*/0, 1 << 20,
           [&]() { up = sim.now(); });
  net.Send(Direction::kTargetToClient, /*ssd=*/0, 1 << 20,
           [&]() { down = sim.now(); });
  sim.Run();
  // Full duplex: both complete around the same time.
  EXPECT_NEAR(static_cast<double>(up), static_cast<double>(down), 1000.0);
}

TEST(Network, FlatLinkQueuesBehindTheFrontierWithOneEventPerMessage) {
  sim::Simulator sim;
  Network net(sim);
  const fabric::NetworkConfig& c = net.config();
  Tick big = -1, small = -1;
  net.Send(Direction::kClientToTarget, /*ssd=*/0, 1 << 20,
           [&]() { big = sim.now(); });
  sim.At(Microseconds(1), [&]() {
    net.Send(Direction::kClientToTarget, /*ssd=*/0, 64,
             [&]() { small = sim.now(); });
  });
  sim.Run();
  const Tick big_t = TransferTime(1 << 20, c.bandwidth_bps);
  EXPECT_EQ(big, big_t + c.base_latency);
  // The 64 B message starts when the link frees, not when it was sent.
  EXPECT_EQ(small, big_t + TransferTime(64, c.bandwidth_bps) + c.base_latency);
  // Two deliveries plus the timer that sent the second message.
  EXPECT_EQ(sim.events_executed(), 3u);
}

// Rack tandem (docs/SIMULATOR.md): two nodes behind a ToR uplink twice as
// fast as their access links. Node 0 has a 1 MiB message in flight when
// node 1 sends 64 B; each stage serves messages in the order they reach
// it, so the small message never waits for a stage the big one has not
// reached yet.
struct RackRig {
  sim::Simulator sim;
  Network net{sim};
  Tick big = -1;
  Tick small = -1;

  RackRig() {
    net.ConfigureRack({0, 1}, 2, 2 * net.config().bandwidth_bps);
  }
  Tick Link(uint64_t bytes) const {
    return TransferTime(bytes, net.config().bandwidth_bps);
  }
  Tick Uplink(uint64_t bytes) const {
    return TransferTime(bytes, net.uplink_bps());
  }
  // Node 0 (pipeline 0) sends 1 MiB at t=0, node 1 (pipeline 1) 64 B at
  // t=1 us, both in `dir`.
  void Run(Direction dir) {
    net.Send(dir, /*ssd=*/0, 1 << 20, [this]() { big = sim.now(); });
    sim.At(Microseconds(1), [this, dir]() {
      net.Send(dir, /*ssd=*/1, 64, [this]() { small = sim.now(); });
    });
    sim.Run();
  }
};

TEST(Network, RackUplinkServesTargetMessagesInArrivalOrder) {
  RackRig rig;
  rig.Run(Direction::kTargetToClient);
  const Tick base = rig.net.config().base_latency;
  // Node 1's message reaches the idle uplink while node 0's is still on
  // its access link, so it crosses first.
  EXPECT_EQ(rig.small, Microseconds(1) + rig.Link(64) + rig.Uplink(64) + base);
  EXPECT_EQ(rig.big, rig.Link(1 << 20) + rig.Uplink(1 << 20) + base);
  EXPECT_LT(rig.small, rig.big);
}

TEST(Network, RackAccessLinksServeClientMessagesIndependently) {
  RackRig rig;
  rig.Run(Direction::kClientToTarget);
  const Tick base = rig.net.config().base_latency;
  // The shared uplink comes first this way, so the 64 B message queues
  // behind the 1 MiB one there, then overtakes it on node 1's idle access
  // link while node 0's link is still serializing.
  const Tick up_big = rig.Uplink(1 << 20);
  EXPECT_EQ(rig.small, up_big + rig.Uplink(64) + rig.Link(64) + base);
  EXPECT_EQ(rig.big, up_big + rig.Link(1 << 20) + base);
  EXPECT_LT(rig.small, rig.big);
}

// ---------------------------------------------------------------------------
// Target + Initiator round trips
// ---------------------------------------------------------------------------

struct FabricRig {
  sim::Simulator sim;
  Network net{sim};
  fabric::Target target;
  ssd::NullDevice* null_dev = nullptr;

  explicit FabricRig(fabric::TargetConfig cfg = {})
      : target(sim, net, cfg) {
    auto dev = std::make_unique<ssd::NullDevice>(sim);
    null_dev = dev.get();
    owned_dev_ = std::move(dev);
    target.AddPipeline(
        std::make_unique<baselines::FcfsPolicy>(sim, *null_dev));
  }

 private:
  std::unique_ptr<ssd::BlockDevice> owned_dev_;
};

TEST(FabricRoundTrip, ReadLatencyComposition) {
  FabricRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1);
  Tick e2e = -1;
  init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal,
              [&](const IoCompletion&, Tick lat) { e2e = lat; });
  rig.sim.Run();
  // capsule (5us) + submit cpu + null dev (2us) + complete cpu + staging +
  // data+capsule back (5us + ~0.3us serialization) ~= 15-20us.
  EXPECT_GT(e2e, Microseconds(12));
  EXPECT_LT(e2e, Microseconds(25));
}

TEST(FabricRoundTrip, WritePaysRdmaReadTrip) {
  FabricRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1);
  Tick read_lat = -1, write_lat = -1;
  init.Submit(IoType::kRead, 0, 65536, IoPriority::kNormal,
              [&](const IoCompletion&, Tick lat) { read_lat = lat; });
  rig.sim.Run();
  init.Submit(IoType::kWrite, 0, 65536, IoPriority::kNormal,
              [&](const IoCompletion&, Tick lat) { write_lat = lat; });
  rig.sim.Run();
  // The write's payload needs an extra control+data round trip.
  EXPECT_GT(write_lat, read_lat);
}

TEST(FabricRoundTrip, CompletionCarriesTenant) {
  FabricRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 7);
  IoCompletion got;
  init.Submit(IoType::kRead, 4096, 4096, IoPriority::kHigh,
              [&](const IoCompletion& c, Tick) { got = c; });
  rig.sim.Run();
  EXPECT_EQ(got.tenant, 7u);
  EXPECT_EQ(got.length, 4096u);
  EXPECT_EQ(got.type, IoType::kRead);
}

TEST(FabricRoundTrip, ManyOutstandingAllComplete) {
  FabricRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1);
  int done = 0;
  for (int i = 0; i < 500; ++i) {
    init.Submit(IoType::kRead, static_cast<uint64_t>(i) * 4096, 4096,
                IoPriority::kNormal,
                [&](const IoCompletion&, Tick) { ++done; });
  }
  rig.sim.Run();
  EXPECT_EQ(done, 500);
  EXPECT_EQ(init.inflight(), 0u);
}

TEST(FabricRoundTrip, AddedCostSlowsPipeline) {
  fabric::TargetConfig slow;
  slow.added_cost = Microseconds(50);
  FabricRig fast_rig, slow_rig(slow);
  auto run = [](FabricRig& rig) {
    fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1);
    Tick e2e = 0;
    init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal,
                [&](const IoCompletion&, Tick lat) { e2e = lat; });
    rig.sim.Run();
    return e2e;
  };
  EXPECT_GT(run(slow_rig), run(fast_rig) + Microseconds(45));
}

TEST(Initiator, CreditThrottleLimitsInflight) {
  FabricRig rig;
  // Credit mode with no Gimbal switch: the FCFS policy grants no credit
  // updates, so the initial credit (8) caps inflight.
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1,
                         fabric::ThrottleMode::kCredit);
  for (int i = 0; i < 64; ++i) {
    init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal, nullptr);
  }
  EXPECT_LE(init.inflight(), 8u);
  EXPECT_EQ(init.queued(), 64u - init.inflight());
  rig.sim.Run();
  EXPECT_EQ(init.inflight(), 0u);
  EXPECT_EQ(init.queued(), 0u);
}

TEST(Initiator, PardaWindowShrinksUnderHighLatency) {
  baselines::PardaParams pp;
  pp.latency_threshold = Microseconds(10);  // absurdly tight on purpose
  pp.epoch = Microseconds(50);
  FabricRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1,
                         fabric::ThrottleMode::kParda, pp);
  for (int i = 0; i < 2000; ++i) {
    init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal, nullptr);
  }
  rig.sim.Run();
  // Observed latency (~15us) >> threshold (10us): window collapses.
  EXPECT_LT(init.parda_window(), 8.0);
}

TEST(Initiator, PardaWindowGrowsUnderLowLatency) {
  baselines::PardaParams pp;
  pp.latency_threshold = Milliseconds(2);
  pp.epoch = Microseconds(50);
  FabricRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1,
                         fabric::ThrottleMode::kParda, pp);
  for (int i = 0; i < 2000; ++i) {
    init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal, nullptr);
  }
  rig.sim.Run();
  EXPECT_GT(init.parda_window(), 8.0);
}

// ---------------------------------------------------------------------------
// Initiator in-flight window: completions in any order, retries, teardown
// ---------------------------------------------------------------------------

// Holds every command the target hands it until the test completes it, so
// a test picks the order completions come back in. A retransmitted command
// is held once per copy.
class HoldPolicy : public core::IoPolicy {
 public:
  void OnRequest(const IoRequest& req) override { held_.push_back(req); }
  std::string name() const override { return "hold"; }

  // Completes the oldest held copy of command `id` (ok, no credit).
  void Complete(uint64_t id) {
    for (auto it = held_.begin(); it != held_.end(); ++it) {
      if (it->id != id) continue;
      const IoRequest req = *it;
      held_.erase(it);
      IoCompletion cpl;
      cpl.id = req.id;
      cpl.tenant = req.tenant;
      cpl.type = req.type;
      cpl.length = req.length;
      complete_(req, cpl);
      return;
    }
    ADD_FAILURE() << "command " << id << " is not held";
  }
  size_t held() const { return held_.size(); }

 private:
  std::vector<IoRequest> held_;
};

struct HoldRig {
  sim::Simulator sim;
  Network net{sim};
  fabric::Target target{sim, net};
  HoldPolicy* policy = nullptr;

  HoldRig() {
    auto p = std::make_unique<HoldPolicy>();
    policy = p.get();
    target.AddPipeline(std::move(p));
  }
};

// Submits a 4 KiB read whose completion appends (id, status) to `log`.
void SubmitLogged(fabric::Initiator& init,
                  std::vector<std::pair<uint64_t, IoStatus>>& log) {
  init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal,
              [&log](const IoCompletion& c, Tick) {
                log.emplace_back(c.id, c.status);
              });
}

std::vector<uint64_t> Ids(
    const std::vector<std::pair<uint64_t, IoStatus>>& log) {
  std::vector<uint64_t> ids;
  for (const auto& [id, status] : log) ids.push_back(id);
  return ids;
}

TEST(Initiator, OutOfOrderCompletionsFinishEachIoOnce) {
  HoldRig rig;
  // Credit mode: the hold policy grants no credit, so the initial 8 caps
  // the issued IOs and the rest queue.
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1,
                         fabric::ThrottleMode::kCredit);
  std::vector<std::pair<uint64_t, IoStatus>> log;
  for (int i = 0; i < 10; ++i) SubmitLogged(init, log);
  rig.sim.Run();
  EXPECT_EQ(init.inflight(), 8u);
  EXPECT_EQ(init.queued(), 2u);
  EXPECT_EQ(rig.policy->held(), 8u);

  // Each completion frees one credit, which issues the next queued IO.
  for (uint64_t id : {5, 2, 8}) {
    rig.policy->Complete(id);
    rig.sim.Run();
  }
  EXPECT_EQ(Ids(log), (std::vector<uint64_t>{5, 2, 8}));
  EXPECT_EQ(init.inflight(), 7u);
  EXPECT_EQ(init.queued(), 0u);
  EXPECT_EQ(rig.policy->held(), 7u);

  // The oldest IO last: the window drains through its holes.
  for (uint64_t id : {9, 3, 10, 4, 6, 7, 1}) {
    rig.policy->Complete(id);
    rig.sim.Run();
  }
  EXPECT_EQ(Ids(log),
            (std::vector<uint64_t>{5, 2, 8, 9, 3, 10, 4, 6, 7, 1}));
  for (const auto& [id, status] : log) EXPECT_EQ(status, IoStatus::kOk);
  EXPECT_EQ(init.inflight(), 0u);
  EXPECT_EQ(init.queued(), 0u);
  EXPECT_EQ(init.late_completions(), 0u);
}

TEST(Initiator, TimeoutRetriesTheSameIdAndCountsTheLateDuplicate) {
  HoldRig rig;
  fabric::RetryParams retry;
  retry.io_timeout = Microseconds(100);
  retry.backoff_base = Microseconds(50);
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1,
                         fabric::ThrottleMode::kNone, {}, retry);
  std::vector<std::pair<uint64_t, IoStatus>> log;
  SubmitLogged(init, log);
  // Times out at 100 us and retransmits after a 50 us backoff.
  rig.sim.RunUntil(Microseconds(200));
  EXPECT_EQ(init.timeouts(), 0u);
  EXPECT_EQ(init.retries(), 1u);
  EXPECT_EQ(init.inflight(), 1u);
  EXPECT_EQ(rig.policy->held(), 2u);  // both transmissions of id 1

  rig.policy->Complete(1);  // either copy completes the IO
  rig.sim.Run();            // and cancels the retry's timeout
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], std::make_pair(uint64_t{1}, IoStatus::kOk));
  EXPECT_EQ(init.inflight(), 0u);
  EXPECT_EQ(init.late_completions(), 0u);

  rig.policy->Complete(1);  // the duplicate is counted and dropped
  rig.sim.Run();
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(init.late_completions(), 1u);
  EXPECT_EQ(init.timeouts(), 0u);
}

TEST(Initiator, CrashFailsQueuedInFifoOrderThenIssuedByAscendingId) {
  HoldRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1,
                         fabric::ThrottleMode::kCredit);
  std::vector<std::pair<uint64_t, IoStatus>> log;
  for (int i = 0; i < 12; ++i) SubmitLogged(init, log);
  rig.sim.Run();
  // Ids 1-8 issued; 2 and 5 complete, which issues 9 and 10.
  rig.policy->Complete(2);
  rig.sim.Run();
  rig.policy->Complete(5);
  rig.sim.Run();
  EXPECT_EQ(init.inflight(), 8u);
  EXPECT_EQ(init.queued(), 2u);

  init.Crash();
  EXPECT_EQ(init.inflight(), 0u);
  EXPECT_EQ(init.queued(), 0u);
  rig.sim.Run();
  EXPECT_EQ(Ids(log), (std::vector<uint64_t>{2, 5,               // ok
                                             11, 12,             // queued
                                             1, 3, 4, 6, 7, 8,   // issued
                                             9, 10}));
  for (size_t i = 2; i < log.size(); ++i) {
    EXPECT_EQ(log[i].second, IoStatus::kAborted) << "id " << log[i].first;
  }
  // A completion still arriving for a crashed session's IO is late.
  rig.policy->Complete(3);
  rig.sim.Run();
  EXPECT_EQ(log.size(), 12u);
  EXPECT_EQ(init.late_completions(), 1u);
}

TEST(Initiator, ShutdownDuringBackoffAbortsTheIo) {
  HoldRig rig;
  fabric::RetryParams retry;
  retry.io_timeout = Microseconds(100);
  retry.backoff_base = Microseconds(50);
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1,
                         fabric::ThrottleMode::kNone, {}, retry);
  std::vector<std::pair<uint64_t, IoStatus>> log;
  SubmitLogged(init, log);
  rig.sim.RunUntil(Microseconds(120));  // timed out; backoff until 150 us
  EXPECT_EQ(init.retries(), 1u);
  EXPECT_EQ(init.inflight(), 1u);
  init.Shutdown();
  EXPECT_EQ(init.inflight(), 1u);  // the backoff still owns it
  rig.sim.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], std::make_pair(uint64_t{1}, IoStatus::kAborted));
  EXPECT_EQ(init.inflight(), 0u);
  EXPECT_EQ(rig.policy->held(), 1u);  // never retransmitted
  EXPECT_EQ(rig.sim.pending_events(), 0u);
}

TEST(Initiator, StragglerGrowsTheWindowOnceAndItIsReused) {
  HoldRig rig;
  fabric::Initiator init(rig.sim, rig.net, rig.target, 0, 1);
  EXPECT_EQ(init.window_capacity(), 0u);  // nothing until the first IO
  uint64_t done = 0;
  auto count = [&done](const IoCompletion&, Tick) { ++done; };
  uint64_t next = 1;
  for (int round = 0; round < 2; ++round) {
    // One straggler, then 100 IOs that all complete while it holds the
    // front: the window spans 101 ids.
    const uint64_t straggler = next;
    for (int i = 0; i <= 100; ++i) {
      init.Submit(IoType::kRead, 0, 4096, IoPriority::kNormal, count);
    }
    next += 101;
    rig.sim.Run();
    for (uint64_t id = straggler + 1; id < next; ++id) {
      rig.policy->Complete(id);
    }
    rig.sim.Run();
    EXPECT_EQ(init.inflight(), 1u);
    EXPECT_EQ(init.window_capacity(), 128u) << "round " << round;
    rig.policy->Complete(straggler);
    rig.sim.Run();
    EXPECT_EQ(init.inflight(), 0u);
  }
  EXPECT_EQ(done, 202u);
  EXPECT_EQ(init.window_capacity(), 128u);
}

// ---------------------------------------------------------------------------
// Baseline policies on a NULL device
// ---------------------------------------------------------------------------

TEST(ReflexPolicy, EnforcesTokenRate) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(1));
  baselines::ReflexParams rp;
  rp.token_rate = 10000;  // 10K 4K-reads/sec
  baselines::ReflexPolicy policy(sim, dev, rp);
  uint64_t done = 0;
  policy.set_completion_fn(
      [&](const IoRequest&, const IoCompletion&) { ++done; });
  for (int i = 0; i < 1000; ++i) {
    IoRequest r;
    r.id = static_cast<uint64_t>(i) + 1;
    r.tenant = 1;
    r.type = IoType::kRead;
    r.length = 4096;
    policy.OnRequest(r);
  }
  sim.RunUntil(Milliseconds(100));
  // 100ms at 10K IOPS ~ 1000 IOs; allow bucket burst slack.
  EXPECT_GT(done, 800u);
  EXPECT_LE(done, 1000u);
}

TEST(ReflexPolicy, WritesCostMoreTokens) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(1));
  baselines::ReflexParams rp;
  rp.token_rate = 9000;
  rp.write_cost = 9.0;
  baselines::ReflexPolicy policy(sim, dev, rp);
  uint64_t reads = 0, writes = 0;
  policy.set_completion_fn([&](const IoRequest& r, const IoCompletion&) {
    (r.type == IoType::kRead ? reads : writes)++;
  });
  for (int i = 0; i < 2000; ++i) {
    IoRequest r;
    r.id = static_cast<uint64_t>(i) + 1;
    r.tenant = (i % 2) ? 1 : 2;
    r.type = (i % 2) ? IoType::kRead : IoType::kWrite;
    r.length = 4096;
    policy.OnRequest(r);
  }
  sim.RunUntil(Milliseconds(100));
  // Token costs are 1 vs 9: reads complete ~9x as fast.
  ASSERT_GT(writes, 0u);
  EXPECT_GT(reads, 4 * writes);
}

TEST(FlashFqPolicy, ThrottledDispatchBoundsOutstanding) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(100));
  baselines::FlashFqParams fp;
  fp.depth = 4;
  baselines::FlashFqPolicy policy(sim, dev, fp);
  policy.set_completion_fn([](const IoRequest&, const IoCompletion&) {});
  for (int i = 0; i < 100; ++i) {
    IoRequest r;
    r.id = static_cast<uint64_t>(i) + 1;
    r.tenant = 1;
    r.type = IoType::kRead;
    r.length = 4096;
    policy.OnRequest(r);
  }
  EXPECT_LE(dev.inflight(), 4u);
  sim.Run();
}

TEST(FlashFqPolicy, FairBetweenEqualFlows) {
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(50));
  baselines::FlashFqPolicy policy(sim, dev);
  uint64_t per_tenant[3] = {0, 0, 0};
  policy.set_completion_fn([&](const IoRequest& r, const IoCompletion&) {
    ++per_tenant[r.tenant];
  });
  // Tenant 1 floods; tenant 2 offers the same; SFQ serves them equally.
  for (int i = 0; i < 400; ++i) {
    for (TenantId t : {1u, 2u}) {
      IoRequest r;
      r.id = static_cast<uint64_t>(i * 2 + t);
      r.tenant = t;
      r.type = IoType::kRead;
      r.length = 4096;
      policy.OnRequest(r);
    }
  }
  sim.RunUntil(Milliseconds(10));
  ASSERT_GT(per_tenant[1], 0u);
  double ratio = static_cast<double>(per_tenant[1]) /
                 static_cast<double>(per_tenant[2]);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(FlashFqPolicy, SizeWeightedVirtualTime) {
  // A flow of large IOs should get ~the same *bytes*, not the same IOPS.
  sim::Simulator sim;
  ssd::NullDevice dev(sim, 1ull << 30, Microseconds(50));
  baselines::FlashFqPolicy policy(sim, dev);
  uint64_t bytes[3] = {0, 0, 0};
  policy.set_completion_fn([&](const IoRequest& r, const IoCompletion&) {
    bytes[r.tenant] += r.length;
  });
  for (int i = 0; i < 600; ++i) {
    IoRequest small;
    small.id = static_cast<uint64_t>(i) * 2 + 1;
    small.tenant = 1;
    small.type = IoType::kRead;
    small.length = 4096;
    policy.OnRequest(small);
    if (i % 8 == 0) {
      IoRequest big;
      big.id = static_cast<uint64_t>(i) * 2 + 2;
      big.tenant = 2;
      big.type = IoType::kRead;
      big.length = 32768;
      policy.OnRequest(big);
    }
  }
  sim.RunUntil(Milliseconds(8));
  ASSERT_GT(bytes[2], 0u);
  double ratio =
      static_cast<double>(bytes[1]) / static_cast<double>(bytes[2]);
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.6);
}

}  // namespace
}  // namespace gimbal
