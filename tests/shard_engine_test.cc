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
//   * the shard context is visible only while a shard event runs;
//   * random cross-shard traffic executes the (shard, time, id) sequence
//     and epoch count pinned below.
//
// The testbed matrix then runs sparse (one QD1 tenant on one of three
// SSDs) and dense (every SSD loaded) traffic, checks that no epoch after a
// run's leading barrier is empty and that every shard's clock ends at the
// deadline, and pins each run's trace digest, epoch count and executed
// events.
//
// The pinned values were recorded on the hierarchical timing wheel this
// repository used to run alongside the binary heap; the heap reproduced
// every one. Any change to event ordering moves them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "sim/shard.h"
#include "workload/runner.h"

namespace gimbal {
namespace {

using sim::ShardedEngine;

constexpr Tick kLookahead = 100;

ShardedEngine::Config EngineConfig() {
  ShardedEngine::Config c;
  c.lookahead = kLookahead;
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

// FNV-1a over 64-bit words: a compact fingerprint of an event log.
uint64_t Fnv(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct TrafficRun {
  uint64_t log_hash = 0xcbf29ce484222325ull;
  uint64_t events = 0;
  uint64_t epochs = 0;
  bool shard_clocks_monotone = true;  // per shard, log times never go back
};

// Random cross-shard traffic: every event logs (shard, time, id), schedules
// a local successor and, one time in three, sends to a random shard at
// least one lookahead ahead, until 2000 ids are handed out.
TrafficRun RandomTraffic(uint64_t seed) {
  ShardedEngine engine(4, EngineConfig());
  std::vector<Send> outbox;
  engine.set_barrier_fn([&]() {
    for (Send& s : outbox) {
      engine.shard(s.dst).At(s.deliver_at, std::move(s.fn));
    }
    outbox.clear();
  });
  std::mt19937_64 rng(seed);
  TrafficRun run;
  std::vector<Tick> last_seen(4, 0);
  int next_id = 0;
  std::function<void(int)> event = [&](int id) {
    const int self = ShardedEngine::CurrentShard();
    sim::Simulator& sim = *ShardedEngine::CurrentSim();
    run.log_hash = Fnv(run.log_hash, static_cast<uint64_t>(self));
    run.log_hash = Fnv(run.log_hash, static_cast<uint64_t>(sim.now()));
    run.log_hash = Fnv(run.log_hash, static_cast<uint64_t>(id));
    ++run.events;
    if (sim.now() < last_seen[self]) run.shard_clocks_monotone = false;
    last_seen[self] = sim.now();
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
  run.epochs = engine.epochs();
  return run;
}

TEST(ShardedEngine, RandomCrossShardTrafficMatchesPinnedLog) {
  struct Pinned {
    uint64_t seed;
    uint64_t log_hash;
    uint64_t events;
    uint64_t epochs;
  };
  for (const Pinned& want : {
           Pinned{1, 0x1ea9a2fb068695d7ull, 2000, 25},
           Pinned{7, 0x229715469c376320ull, 2000, 27},
           Pinned{42, 0x9fcb8b7408500287ull, 2000, 27},
       }) {
    const TrafficRun run = RandomTraffic(want.seed);
    EXPECT_TRUE(run.shard_clocks_monotone) << "seed " << want.seed;
    EXPECT_EQ(run.log_hash, want.log_hash) << "seed " << want.seed;
    EXPECT_EQ(run.events, want.events) << "seed " << want.seed;
    EXPECT_EQ(run.epochs, want.epochs) << "seed " << want.seed;
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

ShardRun RunSharded(uint64_t seed, bool sparse) {
  obs::Observability obs;
  obs.tracer.Enable(kTraceLimit);
  TestbedConfig cfg;
  cfg.num_ssds = 3;  // < target cores (4): one pipeline per core shard
  cfg.scheme = Scheme::kGimbal;
  cfg.condition = SsdCondition::kClean;
  cfg.ssd.logical_bytes = 128ull << 20;
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
  // Pinned outcome of the run (see the file comment).
  uint64_t digest;
  uint64_t epochs;
  uint64_t events;
};

void PrintTo(const MatrixParam& p, std::ostream* os) {
  *os << (p.sparse ? "sparse" : "dense") << " seed " << p.seed;
}

class ShardEpochMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ShardEpochMatrix, NoEpochIsEmptyAndEveryShardEndsAtTheDeadline) {
  const MatrixParam p = GetParam();
  const ShardRun run = RunSharded(p.seed, p.sparse);
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

TEST_P(ShardEpochMatrix, DigestEpochsAndEventsMatchPinnedValues) {
  const MatrixParam p = GetParam();
  const ShardRun run = RunSharded(p.seed, p.sparse);
  EXPECT_EQ(run.digest, p.digest);
  // The epoch chop is a pure function of the queues' states, so the
  // barrier count is pinned along with the events it brackets.
  EXPECT_EQ(run.epochs, p.epochs);
  EXPECT_EQ(run.events, p.events);
}

// The sparse bed's one QD1 tenant ends up on the same trace whatever its
// seed; the dense runs differ per seed.
INSTANTIATE_TEST_SUITE_P(
    Seeds, ShardEpochMatrix,
    ::testing::Values(
        MatrixParam{1u, true, 0x5b2a559e529f48d0ull, 387, 1474},
        MatrixParam{7u, true, 0x5b2a559e529f48d0ull, 387, 1474},
        MatrixParam{42u, true, 0x5b2a559e529f48d0ull, 387, 1474},
        MatrixParam{1u, false, 0x7d7a0d4dee162cddull, 2149, 19244},
        MatrixParam{7u, false, 0x4307b1e756d3ee3bull, 2125, 19251},
        MatrixParam{42u, false, 0x2ef99dd43f16b459ull, 2089, 19251}));

}  // namespace
}  // namespace gimbal
