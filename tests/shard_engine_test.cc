// Sharded-engine epoch loop (docs/SIMULATOR.md).
//
// The engine steps every shard, in index order on the calling thread, up
// to the uniform horizon E = T + W - 1 (T = earliest pending event, W =
// lookahead), then runs the barrier hook. The direct tests below drive a
// bare ShardedEngine and pin down that contract:
//
//   * horizons follow T + W - 1 and are clipped by a RunUntil deadline;
//   * within an epoch shards run in index order, whatever their event
//     times; every shard's clock reaches E by the barrier;
//   * sends buffered during an epoch and injected at the barrier deliver
//     at their own time, which no shard has passed yet;
//   * sends buffered from control context replay before the first epoch;
//   * the shard context is visible only while a shard event runs.
//
// The testbed matrix then runs sparse (one QD1 tenant on one of three
// SSDs) and dense (every SSD loaded) traffic on the wheel and the
// reference heap, which must agree on the trace digest and on the epoch
// count, and checks that no epoch after a run's leading barrier is empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <ostream>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/shard.h"
#include "workload/runner.h"

namespace gimbal {
namespace {

using sim::ShardedEngine;

constexpr Tick kLookahead = 100;

ShardedEngine::Config EngineConfig(
    sim::EventQueue::Impl impl = sim::EventQueue::Impl::kTimingWheel) {
  ShardedEngine::Config c;
  c.lookahead = kLookahead;
  c.impl = impl;
  return c;
}

// A cross-shard send, buffered by the sending event and injected into the
// destination shard by the barrier hook (what the network's outboxes do).
struct Send {
  int dst;
  Tick deliver_at;
  std::function<void()> fn;
};

TEST(ShardedEngine, EpochHorizonIsEarliestEventPlusLookaheadMinusOne) {
  ShardedEngine engine(3, EngineConfig());
  std::vector<Tick> barrier_clock;
  engine.set_barrier_fn(
      [&]() { barrier_clock.push_back(engine.shard(0).now()); });
  std::vector<Tick> fired;
  engine.shard(1).At(50, [&]() { fired.push_back(50); });
  engine.shard(2).At(149, [&]() { fired.push_back(149); });
  engine.shard(2).At(150, [&]() { fired.push_back(150); });
  engine.shard(0).At(400, [&]() { fired.push_back(400); });
  engine.shard(0).Run();
  // Leading barrier at 0, then epochs ending at 50+99, 150+99, 400+99.
  EXPECT_EQ(barrier_clock, (std::vector<Tick>{0, 149, 249, 499}));
  EXPECT_EQ(fired, (std::vector<Tick>{50, 149, 150, 400}));
  EXPECT_EQ(engine.epochs(), 4u);
}

TEST(ShardedEngine, ShardsStepInIndexOrderWithinAnEpoch) {
  ShardedEngine engine(3, EngineConfig());
  std::vector<std::pair<int, Tick>> order;
  auto record = [&]() {
    order.emplace_back(ShardedEngine::CurrentShard(),
                       ShardedEngine::CurrentSim()->now());
  };
  // All inside the epoch [10, 109]: shard 0 runs its late event before
  // shard 1's early one, because no shard can affect another in-epoch.
  engine.shard(2).At(10, record);
  engine.shard(1).At(20, record);
  engine.shard(0).At(90, record);
  engine.shard(1).At(30, record);
  engine.shard(0).Run();
  const std::vector<std::pair<int, Tick>> want = {
      {0, 90}, {1, 20}, {1, 30}, {2, 10}};
  EXPECT_EQ(order, want);
  EXPECT_EQ(engine.epochs(), 2u);  // leading barrier + one epoch
}

TEST(ShardedEngine, EveryShardClockReachesTheHorizonByTheBarrier) {
  ShardedEngine engine(4, EngineConfig());
  std::vector<std::vector<Tick>> clocks;
  engine.set_barrier_fn([&]() {
    std::vector<Tick> now;
    for (int i = 0; i < engine.num_shards(); ++i) {
      now.push_back(engine.shard(i).now());
    }
    clocks.push_back(now);
  });
  // Only shard 2 has work; the idle shards still follow the epoch.
  engine.shard(2).At(300, []() {});
  engine.shard(0).Run();
  ASSERT_EQ(clocks.size(), 2u);
  EXPECT_EQ(clocks[0], (std::vector<Tick>{0, 0, 0, 0}));
  EXPECT_EQ(clocks[1], (std::vector<Tick>{399, 399, 399, 399}));
}

TEST(ShardedEngine, RunUntilClipsTheEpochAndLeavesEveryShardAtTheDeadline) {
  ShardedEngine engine(3, EngineConfig());
  std::vector<Tick> barrier_clock;
  engine.set_barrier_fn(
      [&]() { barrier_clock.push_back(engine.shard(1).now()); });
  int fired = 0;
  engine.shard(1).At(50, [&]() { ++fired; });
  engine.shard(1).At(120, [&]() { ++fired; });
  engine.shard(2).At(5000, [&]() { ++fired; });
  // Delegates to the engine: shard 0 fronts the whole sharded testbed.
  engine.shard(0).RunUntil(80);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(barrier_clock, (std::vector<Tick>{0, 80}));
  for (int i = 0; i < engine.num_shards(); ++i) {
    EXPECT_EQ(engine.shard(i).now(), 80) << "shard " << i;
  }
  // Nothing due before the deadline: no epoch runs, clocks still advance.
  engine.shard(0).RunUntil(110);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(barrier_clock.size(), 3u);
  for (int i = 0; i < engine.num_shards(); ++i) {
    EXPECT_EQ(engine.shard(i).now(), 110) << "shard " << i;
  }
  engine.shard(0).RunUntil(1000);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(engine.shard(2).idle());
  EXPECT_EQ(engine.shard(2).now(), 1000);
}

TEST(ShardedEngine, BarrierInjectedSendsDeliverAtTheirOwnTime) {
  ShardedEngine engine(3, EngineConfig());
  std::vector<Send> outbox;
  Tick latest_clock_at_injection = 0;
  bool injected_into_the_past = false;
  engine.set_barrier_fn([&]() {
    for (Send& s : outbox) {
      sim::Simulator& dst = engine.shard(s.dst);
      latest_clock_at_injection =
          std::max(latest_clock_at_injection, dst.now());
      if (s.deliver_at <= dst.now()) injected_into_the_past = true;
      dst.At(s.deliver_at, std::move(s.fn));
    }
    outbox.clear();
  });
  // Ping-pong between shards 1 and 2, each hop exactly one lookahead.
  std::vector<std::pair<int, Tick>> hops;
  std::function<void()> hop = [&]() {
    const int self = ShardedEngine::CurrentShard();
    const Tick now = ShardedEngine::CurrentSim()->now();
    hops.emplace_back(self, now);
    if (hops.size() < 6) outbox.push_back({3 - self, now + kLookahead, hop});
  };
  engine.shard(1).At(7, hop);
  engine.shard(0).Run();
  EXPECT_FALSE(injected_into_the_past);
  EXPECT_LT(latest_clock_at_injection, 7 + 5 * kLookahead);
  const std::vector<std::pair<int, Tick>> want = {
      {1, 7}, {2, 107}, {1, 207}, {2, 307}, {1, 407}, {2, 507}};
  EXPECT_EQ(hops, want);
}

TEST(ShardedEngine, ControlContextSendsReplayBeforeTheFirstEpoch) {
  ShardedEngine engine(2, EngineConfig());
  std::vector<Send> outbox;
  engine.set_barrier_fn([&]() {
    for (Send& s : outbox) {
      engine.shard(s.dst).At(s.deliver_at, std::move(s.fn));
    }
    outbox.clear();
  });
  // Shard 0's event alone would carry shard 1's clock to 599; the send
  // buffered between runs must land first, at t = 5.
  Tick delivered = -1;
  engine.shard(0).At(500, []() {});
  outbox.push_back({1, 5, [&]() { delivered = engine.shard(1).now(); }});
  engine.shard(0).Run();
  EXPECT_EQ(delivered, 5);
}

TEST(ShardedEngine, ShardContextIsSetOnlyWhileAShardEventRuns) {
  ShardedEngine engine(3, EngineConfig());
  std::vector<std::pair<int, sim::Simulator*>> inside;
  std::vector<std::pair<int, sim::Simulator*>> at_barrier;
  for (int i = 0; i < engine.num_shards(); ++i) {
    engine.shard(i).At(10 * (i + 1), [&]() {
      inside.emplace_back(ShardedEngine::CurrentShard(),
                          ShardedEngine::CurrentSim());
    });
  }
  engine.set_barrier_fn([&]() {
    at_barrier.emplace_back(ShardedEngine::CurrentShard(),
                            ShardedEngine::CurrentSim());
  });
  EXPECT_EQ(ShardedEngine::CurrentShard(), -1);
  engine.shard(0).Run();
  ASSERT_EQ(inside.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(inside[static_cast<size_t>(i)].first, i);
    EXPECT_EQ(inside[static_cast<size_t>(i)].second, &engine.shard(i));
  }
  for (const auto& b : at_barrier) {
    EXPECT_EQ(b.first, -1);
    EXPECT_EQ(b.second, nullptr);
  }
  EXPECT_EQ(ShardedEngine::CurrentShard(), -1);
  EXPECT_EQ(ShardedEngine::CurrentSim(), nullptr);
}

TEST(ShardedEngine, RunEndHookRunsOncePerRunAfterTheLastBarrier) {
  ShardedEngine engine(2, EngineConfig());
  std::vector<char> log;
  engine.set_barrier_fn([&]() { log.push_back('b'); });
  engine.set_run_end_fn([&]() { log.push_back('e'); });
  engine.shard(1).At(10, []() {});
  engine.shard(0).RunUntil(50);    // leading barrier, one epoch
  engine.shard(0).RunUntil(60);    // leading barrier only
  engine.shard(1).At(300, []() {});
  engine.shard(0).Run();           // leading barrier, one epoch
  EXPECT_EQ(std::string(log.begin(), log.end()), "bbebebbe");
  EXPECT_EQ(engine.epochs(), 5u);
}

TEST(ShardedEngine, EmptyEngineRunsOnlyTheLeadingBarrier) {
  ShardedEngine engine(3, EngineConfig());
  int barriers = 0;
  engine.set_barrier_fn([&]() { ++barriers; });
  engine.shard(0).Run();
  EXPECT_EQ(barriers, 1);
  EXPECT_EQ(engine.epochs(), 1u);
  EXPECT_EQ(engine.idle_wakeups(), 0u);
  for (int i = 0; i < engine.num_shards(); ++i) {
    EXPECT_EQ(engine.shard(i).now(), 0);
  }
}

// Random cross-shard traffic: the reference heap must execute the same
// (shard, time, id) sequence and the same number of epochs as the wheel.
std::tuple<std::vector<std::tuple<int, Tick, int>>, uint64_t> RandomTraffic(
    sim::EventQueue::Impl impl, uint64_t seed) {
  ShardedEngine engine(4, EngineConfig(impl));
  std::vector<Send> outbox;
  engine.set_barrier_fn([&]() {
    for (Send& s : outbox) {
      engine.shard(s.dst).At(s.deliver_at, std::move(s.fn));
    }
    outbox.clear();
  });
  std::mt19937_64 rng(seed);
  std::vector<std::tuple<int, Tick, int>> log;
  int next_id = 0;
  std::function<void(int)> event = [&](int id) {
    const int self = ShardedEngine::CurrentShard();
    sim::Simulator& sim = *ShardedEngine::CurrentSim();
    log.emplace_back(self, sim.now(), id);
    if (next_id >= 2000) return;
    const int local = next_id++;
    sim.After(static_cast<Tick>(rng() % 300), [&, local]() { event(local); });
    if (rng() % 3 == 0) {
      const int remote = next_id++;
      const int dst = static_cast<int>(rng() % 4);
      const Tick at = sim.now() + kLookahead + static_cast<Tick>(rng() % 50);
      outbox.push_back({dst, at, [&, remote]() { event(remote); }});
    }
  };
  for (int s = 0; s < 4; ++s) {
    const int id = next_id++;
    engine.shard(s).At(static_cast<Tick>(rng() % 200),
                       [&, id]() { event(id); });
  }
  engine.shard(0).Run();
  return {log, engine.epochs()};
}

TEST(ShardedEngine, ReferenceHeapMatchesWheelOnRandomCrossShardTraffic) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    const auto [wheel_log, wheel_epochs] =
        RandomTraffic(sim::EventQueue::Impl::kTimingWheel, seed);
    const auto [heap_log, heap_epochs] =
        RandomTraffic(sim::EventQueue::Impl::kReferenceHeap, seed);
    EXPECT_GE(wheel_log.size(), 2000u);
    EXPECT_EQ(wheel_log, heap_log) << "seed " << seed;
    EXPECT_EQ(wheel_epochs, heap_epochs) << "seed " << seed;
  }
}

// --- Testbed matrix ---------------------------------------------------------

using workload::FioSpec;
using workload::Scheme;
using workload::SsdCondition;
using workload::Testbed;
using workload::TestbedConfig;

constexpr size_t kTraceLimit = 4u << 20;
constexpr Tick kWarmup = Milliseconds(5);
constexpr Tick kMeasure = Milliseconds(15);

struct ShardRun {
  uint64_t digest = 0;
  uint64_t epochs = 0;
  uint64_t events = 0;          // executed across every shard
  std::vector<Tick> end_clocks;  // per shard, after Run()
};

ShardRun RunSharded(sim::EventQueue::Impl impl, uint64_t seed, bool sparse) {
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.num_ssds = 3;  // < target cores (4): one pipeline per core shard
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.queue_impl = impl;
  cfg.obs = &obs;
  cfg.run_label = sparse ? "epoch_sparse" : "epoch_dense";
  Testbed bed(cfg);
  if (sparse) {
    FioSpec lone;
    lone.io_bytes = 131072;
    lone.queue_depth = 1;
    lone.seed = seed;
    bed.AddWorker(lone, 0);
  } else {
    for (int s = 0; s < cfg.num_ssds; ++s) {
      FioSpec victim;
      victim.io_bytes = 4096;
      victim.queue_depth = 16;
      victim.seed = seed + static_cast<uint64_t>(s);
      bed.AddWorker(victim, s);
      FioSpec neighbor;
      neighbor.io_bytes = 131072;
      neighbor.queue_depth = 4;
      neighbor.read_ratio = 0.0;
      neighbor.seed = seed + 1000 + static_cast<uint64_t>(s);
      bed.AddWorker(neighbor, s);
    }
  }
  bed.Run(kWarmup, kMeasure);
  EXPECT_EQ(obs.tracer.dropped(), 0u);
  ShardRun out;
  out.digest = obs.tracer.Digest();
  ShardedEngine* engine = bed.engine();
  EXPECT_NE(engine, nullptr) << "testbed unexpectedly unsharded";
  if (engine != nullptr) {
    out.epochs = engine->epochs();
    for (int i = 0; i < engine->num_shards(); ++i) {
      out.events += engine->shard(i).events_executed();
      out.end_clocks.push_back(engine->shard(i).now());
    }
  }
  return out;
}

struct MatrixParam {
  uint64_t seed;
  bool sparse;
};

void PrintTo(const MatrixParam& p, std::ostream* os) {
  *os << (p.sparse ? "sparse" : "dense") << " seed " << p.seed;
}

class ShardEpochMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ShardEpochMatrix, WheelAndHeapAgreeOnDigestAndEpochs) {
  const MatrixParam p = GetParam();
  const ShardRun wheel =
      RunSharded(sim::EventQueue::Impl::kTimingWheel, p.seed, p.sparse);
  const ShardRun heap =
      RunSharded(sim::EventQueue::Impl::kReferenceHeap, p.seed, p.sparse);
  EXPECT_EQ(wheel.digest, heap.digest)
      << "reference heap diverged, seed " << p.seed
      << (p.sparse ? " (sparse)" : " (dense)");
  // The epoch chop is a pure function of queue states, so even the
  // barrier count must not depend on the queue implementation.
  EXPECT_EQ(wheel.epochs, heap.epochs);
  EXPECT_EQ(wheel.events, heap.events);
}

TEST_P(ShardEpochMatrix, NoEpochIsEmptyAndEveryShardEndsAtTheDeadline) {
  const MatrixParam p = GetParam();
  const ShardRun run =
      RunSharded(sim::EventQueue::Impl::kTimingWheel, p.seed, p.sparse);
  // Testbed::Run drives two RunUntil calls (warm-up, measurement), each
  // opening with one leading barrier; every other epoch starts at a
  // pending event, so it executes at least one.
  constexpr uint64_t kLeadingBarriers = 2;
  ASSERT_GT(run.epochs, kLeadingBarriers);
  EXPECT_LE(run.epochs - kLeadingBarriers, run.events);
  ASSERT_EQ(run.end_clocks.size(), 4u);  // client shard + 3 core shards
  for (size_t i = 0; i < run.end_clocks.size(); ++i) {
    EXPECT_EQ(run.end_clocks[i], kWarmup + kMeasure) << "shard " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ShardEpochMatrix,
    ::testing::Values(MatrixParam{1u, true}, MatrixParam{7u, true},
                      MatrixParam{42u, true}, MatrixParam{1u, false},
                      MatrixParam{7u, false}, MatrixParam{42u, false}));

}  // namespace
}  // namespace gimbal
