// Unit tests for the discrete-event engine: ordering, determinism and
// resources — plus the timing-wheel event queue (cross-checked against the
// reference-heap engine), the allocation-free event callback, and the
// cancellable-timer API (docs/SIMULATOR.md).
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "sim/resource.h"
#include "sim/simulator.h"

namespace gimbal::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(Microseconds(30), [&]() { order.push_back(3); });
  sim.At(Microseconds(10), [&]() { order.push_back(1); });
  sim.At(Microseconds(20), [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Microseconds(30));
}

TEST(Simulator, SameTimestampFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.At(Microseconds(5), [&, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  Tick fired_at = -1;
  sim.At(Microseconds(10), [&]() {
    sim.After(Microseconds(5), [&]() { fired_at = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, Microseconds(15));
}

TEST(Simulator, NestedEventsFromCallbacks) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 50) sim.After(Microseconds(1), recurse);
  };
  sim.After(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(sim.now(), Microseconds(49));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.At(Microseconds(10), [&]() { ++fired; });
  sim.At(Microseconds(20), [&]() { ++fired; });
  sim.RunUntil(Microseconds(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Microseconds(15));
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.RunUntil(Milliseconds(7));
  EXPECT_EQ(sim.now(), Milliseconds(7));
}

TEST(Simulator, EventCountTracking) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.At(i, []() {});
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 10u);
}

TEST(FifoResource, SerializesWork) {
  Simulator sim;
  FifoResource res(sim);
  std::vector<Tick> completions;
  for (int i = 0; i < 3; ++i) {
    res.Acquire(Microseconds(10), [&]() { completions.push_back(sim.now()); });
  }
  sim.Run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], Microseconds(10));
  EXPECT_EQ(completions[1], Microseconds(20));
  EXPECT_EQ(completions[2], Microseconds(30));
}

TEST(FifoResource, IdleThenBusy) {
  Simulator sim;
  FifoResource res(sim);
  EXPECT_FALSE(res.busy());
  res.Acquire(Microseconds(5), nullptr);
  EXPECT_TRUE(res.busy());
  sim.Run();
  EXPECT_FALSE(res.busy());
}

TEST(FifoResource, InterleavedArrivals) {
  Simulator sim;
  FifoResource res(sim);
  std::vector<int> order;
  res.Acquire(Microseconds(10), [&]() { order.push_back(1); });
  sim.At(Microseconds(5), [&]() {
    res.Acquire(Microseconds(10), [&]() { order.push_back(2); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), Microseconds(20));
}

TEST(FifoResource, BusyTimeAccounting) {
  Simulator sim;
  FifoResource res(sim);
  res.Acquire(Microseconds(10), nullptr);
  res.Acquire(Microseconds(15), nullptr);
  sim.Run();
  EXPECT_EQ(res.busy_time_total(), Microseconds(25));
}

// --- InlineFn (allocation-free event callback) -----------------------------

TEST(InlineFn, SmallClosureStaysInline) {
  const uint64_t before = InlineFn::heap_fallbacks();
  int fired = 0;
  InlineFn fn([&fired]() { ++fired; });
  EXPECT_EQ(InlineFn::heap_fallbacks(), before);
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(fired, 1);
}

TEST(InlineFn, CapacitySizedClosureStaysInline) {
  // Exactly kInlineCapacity bytes of captured state — the boundary case the
  // buffer was sized for (the target's completion closure).
  struct Payload {
    unsigned char bytes[InlineFn::kInlineCapacity - sizeof(int*)];
  };
  static_assert(sizeof(Payload) + sizeof(int*) == InlineFn::kInlineCapacity);
  const uint64_t before = InlineFn::heap_fallbacks();
  int sum = 0;
  Payload p{};
  p.bytes[0] = 7;
  InlineFn fn([p, out = &sum]() { *out += p.bytes[0]; });
  EXPECT_EQ(InlineFn::heap_fallbacks(), before);
  fn();
  EXPECT_EQ(sum, 7);
}

TEST(InlineFn, OversizedClosureFallsBackToHeapAndStillWorks) {
  struct Big {
    unsigned char bytes[InlineFn::kInlineCapacity + 64];
  };
  const uint64_t before = InlineFn::heap_fallbacks();
  Big big{};
  big.bytes[100] = 3;
  int got = 0;
  InlineFn fn([big, out = &got]() { *out = big.bytes[100]; });
  EXPECT_EQ(InlineFn::heap_fallbacks(), before + 1);
  fn();
  EXPECT_EQ(got, 3);
}

TEST(InlineFn, MoveTransfersOwnership) {
  int fired = 0;
  InlineFn a([&fired]() { ++fired; });
  InlineFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(fired, 1);
  InlineFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(fired, 2);
}

TEST(InlineFn, NullAndDefaultAreFalsy) {
  InlineFn a;
  InlineFn b(nullptr);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_FALSE(static_cast<bool>(b));
}

// --- Timing wheel vs reference heap ----------------------------------------

// Granularity of a level-0 wheel slot (2^10 ns) — mirrored here so the
// tests can aim events at specific wheel levels without reaching into the
// queue's internals.
constexpr Tick kSlotNs = 1 << 10;
// One lap of level 0 (256 slots); events beyond this distance file into
// level 1 or higher.
constexpr Tick kLevel0Window = 256 * kSlotNs;
// The whole wheel's horizon (4 levels); events beyond it park in the
// overflow heap.
constexpr Tick kWheelHorizon = Tick{1} << 42;

TEST(EventQueue, PopReportsTimeAndDrainsInOrder) {
  EventQueue q;
  q.Push(30, nullptr);
  q.Push(10, nullptr);
  q.Push(20, nullptr);
  EXPECT_EQ(q.size(), 3u);
  Tick t = -1;
  q.Pop(&t);
  EXPECT_EQ(t, 10);
  EXPECT_EQ(q.next_time(), 20);
  q.Pop(&t);
  q.Pop(&t);
  EXPECT_EQ(t, 30);
  EXPECT_TRUE(q.empty());
}

// Regression for the wheel's slot-selection rule: a higher-level slot can
// start earlier than the nearest occupied level-0 slot (its events were
// beyond the level-0 window when filed and the cursor advanced since).
// The scan must take the earliest-starting slot across levels, not the
// first occupied level-0 slot.
TEST(EventQueue, HigherLevelSlotCanPrecedeNearestLevelZeroSlot) {
  EventQueue q;
  std::vector<int> order;
  // B lands in level 1: 300 slots ahead of cursor 0.
  q.Push(300 * kSlotNs, [&order]() { order.push_back(2); });
  // Filler advances the cursor into slot 100.
  q.Push(100 * kSlotNs, [&order]() { order.push_back(1); });
  Tick t;
  q.Pop(&t)();  // fires the filler; cursor now at slot 100
  // A lands in level 0 at slot 350 — *later* than B but found first by a
  // level-0-first scan.
  q.Push(350 * kSlotNs, [&order]() { order.push_back(3); });
  while (!q.empty()) q.Pop(&t)();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FarFutureEventsBeyondHorizonFireInOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(kWheelHorizon * 3, [&order]() { order.push_back(4); });
  q.Push(kWheelHorizon + 5, [&order]() { order.push_back(3); });
  q.Push(kLevel0Window * 2, [&order]() { order.push_back(2); });
  q.Push(17, [&order]() { order.push_back(1); });
  Tick t = -1;
  while (!q.empty()) q.Pop(&t)();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(t, kWheelHorizon * 3);
}

TEST(EventQueue, SameTickBurstAcrossHorizonKeepsInsertionOrder) {
  // A same-tick burst far beyond the horizon migrates overflow -> wheel ->
  // current heap; insertion order must survive all three hops.
  EventQueue q;
  std::vector<int> order;
  const Tick when = kWheelHorizon + 12345;
  for (int i = 0; i < 64; ++i) {
    q.Push(when, [&order, i]() { order.push_back(i); });
  }
  Tick t;
  while (!q.empty()) q.Pop(&t)();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ReferenceHeapEngineHonorsSameContract) {
  EventQueue q(EventQueue::Impl::kReferenceHeap);
  EXPECT_EQ(q.impl(), EventQueue::Impl::kReferenceHeap);
  std::vector<int> order;
  q.Push(20, [&order]() { order.push_back(2); });
  q.Push(10, [&order]() { order.push_back(1); });
  q.Push(10, [&order]() { order.push_back(11); });  // same tick: FIFO
  Tick t;
  while (!q.empty()) q.Pop(&t)();
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2}));
}

// --- TimerHandle -----------------------------------------------------------

TEST(TimerHandle, DefaultHandleIsInert) {
  TimerHandle h;
  EXPECT_FALSE(h.active());
  EXPECT_FALSE(h.Cancel());
  EXPECT_FALSE(h.Reschedule(5));
}

TEST(TimerHandle, CancelPreventsFiringAndGoesInert) {
  Simulator sim;
  int fired = 0;
  TimerHandle h = sim.After(Microseconds(10), [&fired]() { ++fired; });
  EXPECT_TRUE(h.active());
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(h.Cancel());
  EXPECT_FALSE(h.active());
  EXPECT_FALSE(h.Cancel());  // second cancel: stale, no-op
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 0);  // nothing ran, clock never moved
}

TEST(TimerHandle, CancelAfterFireIsNoOp) {
  Simulator sim;
  int fired = 0;
  TimerHandle h = sim.After(Microseconds(10), [&fired]() { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.active());
  EXPECT_FALSE(h.Cancel());
  EXPECT_FALSE(h.Reschedule(sim.now() + 5));
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(TimerHandle, CancelledNodeRecycledWithoutAliasingOldHandle) {
  Simulator sim;
  int a_fired = 0, b_fired = 0;
  TimerHandle a = sim.After(Microseconds(10), [&a_fired]() { ++a_fired; });
  a.Cancel();
  // b recycles a's node; a's stale handle must not be able to touch it.
  TimerHandle b = sim.After(Microseconds(20), [&b_fired]() { ++b_fired; });
  EXPECT_FALSE(a.Cancel());
  EXPECT_FALSE(a.Reschedule(Microseconds(30)));
  EXPECT_TRUE(b.active());
  sim.Run();
  EXPECT_EQ(a_fired, 0);
  EXPECT_EQ(b_fired, 1);
}

TEST(TimerHandle, RescheduleMovesFiringTime) {
  Simulator sim;
  Tick fired_at = -1;
  TimerHandle h =
      sim.After(Microseconds(10), [&]() { fired_at = sim.now(); });
  EXPECT_TRUE(h.Reschedule(Microseconds(50)));
  EXPECT_TRUE(h.active());
  sim.Run();
  EXPECT_EQ(fired_at, Microseconds(50));
  // The handle tracked the move and is now spent.
  EXPECT_FALSE(h.active());
}

TEST(TimerHandle, RescheduleReentersOrderingAsFreshPush) {
  Simulator sim;
  std::vector<int> order;
  TimerHandle x = sim.At(Microseconds(5), [&order]() { order.push_back(1); });
  sim.At(Microseconds(5), [&order]() { order.push_back(2); });
  // Rescheduling x to its own time demotes it behind the same-tick peer:
  // a rescheduled event orders as if freshly pushed.
  EXPECT_TRUE(x.Reschedule(Microseconds(5)));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(TimerHandle, RescheduleToNowFiresImmediately) {
  Simulator sim;
  std::vector<int> order;
  sim.At(Microseconds(1), [&]() {
    TimerHandle h =
        sim.After(Microseconds(100), [&order]() { order.push_back(1); });
    EXPECT_TRUE(h.Reschedule(sim.now()));  // pull it back to this tick
    sim.After(0, [&order]() { order.push_back(2); });
  });
  sim.Run();
  EXPECT_EQ(sim.now(), Microseconds(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerHandle, CopiesShareTheClaim) {
  Simulator sim;
  int fired = 0;
  TimerHandle a = sim.After(Microseconds(10), [&fired]() { ++fired; });
  TimerHandle b = a;
  EXPECT_TRUE(b.Cancel());
  EXPECT_FALSE(a.active());
  EXPECT_FALSE(a.Cancel());
  sim.Run();
  EXPECT_EQ(fired, 0);
}

// --- Clear() ---------------------------------------------------------------

// Regression: Clear() used to keep the old insertion sequence running, so
// a reused queue ordered same-tick events differently from a fresh one.
TEST(EventQueue, ClearResetsInsertionSequence) {
  EventQueue q;
  q.Push(10, nullptr);
  q.Push(20, nullptr);
  EXPECT_EQ(q.next_seq(), 2u);
  q.Clear();
  EXPECT_EQ(q.next_seq(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.tombstones(), 0u);
}

TEST(EventQueue, ClearedQueueBehavesLikeFresh) {
  auto run = [](EventQueue& q) {
    std::vector<int> order;
    q.Push(kLevel0Window * 3, [&order]() { order.push_back(2); });
    q.Push(5, [&order]() { order.push_back(1); });
    q.Push(5, [&order]() { order.push_back(11); });
    Tick t;
    while (!q.empty()) q.Pop(&t)();
    return order;
  };
  EventQueue fresh;
  const std::vector<int> want = run(fresh);

  EventQueue reused;
  reused.Push(kWheelHorizon + 7, nullptr);  // park something in overflow
  reused.Push(3, nullptr);
  Tick t;
  reused.Pop(&t);  // advance the cursor off zero
  reused.Clear();
  EXPECT_EQ(run(reused), want);
}

TEST(EventQueue, HandleFromBeforeClearStaysInert) {
  EventQueue q;
  TimerHandle h = q.Push(10, nullptr);
  q.Clear();
  EXPECT_FALSE(h.active());
  // The recycled node now backs a new event; the stale handle must not
  // cancel it out from under the new owner.
  TimerHandle h2 = q.Push(20, nullptr);
  EXPECT_FALSE(h.Cancel());
  EXPECT_TRUE(h2.active());
  EXPECT_EQ(q.size(), 1u);
}

// --- Tombstone accounting ---------------------------------------------------

TEST(EventQueue, TombstonesDrainAsTheQueueAdvances) {
  EventQueue q;
  std::vector<TimerHandle> hs;
  for (int i = 0; i < 16; ++i) hs.push_back(q.Push(100 + i, nullptr));
  for (int i = 0; i < 16; i += 2) hs[i].Cancel();
  EXPECT_EQ(q.size(), 8u);
  EXPECT_EQ(q.tombstones(), 8u);
  Tick t;
  while (!q.empty()) q.Pop(&t);
  EXPECT_EQ(q.tombstones(), 0u);  // surfaced entries were reclaimed
}

// --- Property test: randomized interleavings, wheel vs reference heap ------

// Drives both engines through an identical randomized stream of Push, Pop,
// Cancel and Reschedule — same-tick bursts, far-future overflow parking,
// cancels of already-fired handles, reschedules to now — and asserts the
// two agree on every observable: pop times, fired-callback identity,
// operation return values, and sizes.
TEST(EventQueue, RandomizedOpsMatchReferenceHeap) {
  constexpr int kSeeds = 10;
  constexpr int kOpsPerSeed = 10000;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull);
    EventQueue wheel(EventQueue::Impl::kTimingWheel);
    EventQueue ref(EventQueue::Impl::kReferenceHeap);
    std::vector<std::pair<TimerHandle, TimerHandle>> handles;
    std::vector<int> wfired, rfired;
    Tick now = 0;
    int next_id = 0;

    auto random_delta = [&]() -> Tick {
      switch (rng() % 5) {
        case 0: return 0;  // same tick
        case 1: return static_cast<Tick>(rng() % (2 * kSlotNs));
        case 2: return static_cast<Tick>(rng() % kLevel0Window);
        case 3: return static_cast<Tick>(rng() % kWheelHorizon);
        default:
          return kWheelHorizon + static_cast<Tick>(rng() % kWheelHorizon);
      }
    };
    auto push_one = [&]() {
      const Tick when = now + random_delta();
      const int id = next_id++;
      handles.emplace_back(
          wheel.Push(when, [&wfired, id]() { wfired.push_back(id); }),
          ref.Push(when, [&rfired, id]() { rfired.push_back(id); }));
    };
    auto pop_one = [&]() {
      Tick tw = -1, tr = -2;
      EventFn fw = wheel.Pop(&tw);
      EventFn fr = ref.Pop(&tr);
      ASSERT_EQ(tw, tr) << "pop time diverged, seed " << seed;
      ASSERT_GE(tw, now);
      now = tw;
      fw();
      fr();
      ASSERT_EQ(wfired.back(), rfired.back())
          << "fired different events at t=" << tw << ", seed " << seed;
    };

    for (int op = 0; op < kOpsPerSeed; ++op) {
      const uint64_t what = rng() % 100;
      if (what < 40 || wheel.empty()) {
        if (what < 8) {
          // Same-tick burst: several events on one future tick.
          const Tick when = now + random_delta();
          for (int i = 0; i < 5; ++i) {
            const int id = next_id++;
            handles.emplace_back(
                wheel.Push(when, [&wfired, id]() { wfired.push_back(id); }),
                ref.Push(when, [&rfired, id]() { rfired.push_back(id); }));
          }
        } else {
          push_one();
        }
      } else if (what < 65) {
        pop_one();
        if (HasFatalFailure()) return;
      } else if (what < 85 && !handles.empty()) {
        // Cancel a random handle — often one that already fired or was
        // cancelled before; both engines must agree either way.
        auto& [hw, hr] = handles[rng() % handles.size()];
        ASSERT_EQ(hw.active(), hr.active());
        ASSERT_EQ(hw.Cancel(), hr.Cancel()) << "cancel diverged, seed "
                                            << seed;
      } else if (!handles.empty()) {
        auto& [hw, hr] = handles[rng() % handles.size()];
        const Tick when = now + (rng() % 3 == 0 ? 0 : random_delta());
        ASSERT_EQ(hw.Reschedule(when), hr.Reschedule(when))
            << "reschedule diverged, seed " << seed;
      }
      ASSERT_EQ(wheel.size(), ref.size());
      ASSERT_EQ(wheel.empty(), ref.empty());
    }
    while (!ref.empty()) {
      ASSERT_FALSE(wheel.empty()) << "wheel drained early, seed " << seed;
      pop_one();
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(wheel.empty()) << "wheel kept extra events, seed " << seed;
    EXPECT_EQ(wfired, rfired) << "full firing order diverged, seed " << seed;
  }
}

}  // namespace
}  // namespace gimbal::sim
