// Unit tests for the discrete-event engine: ordering, determinism and
// resources — plus the event queue (cross-checked against a std::set
// oracle), the allocation-free event callback, and the cancellable-timer
// API (docs/SIMULATOR.md).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <utility>
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
  Resource res(sim);
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
  Resource res(sim);
  EXPECT_FALSE(res.busy());
  res.Acquire(Microseconds(5), nullptr);
  EXPECT_TRUE(res.busy());
  sim.Run();
  EXPECT_FALSE(res.busy());
}

TEST(FifoResource, InterleavedArrivals) {
  Simulator sim;
  Resource res(sim);
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
  Resource res(sim);
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

// --- Event queue ordering contract ----------------------------------------

// Time scales the ordering tests and the randomized op generator mix: a
// couple of microseconds, a quarter millisecond, and ~73 simulated minutes.
constexpr Tick kShortGap = 2 << 10;
constexpr Tick kMediumGap = 256 << 10;
constexpr Tick kFarFuture = Tick{1} << 42;

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

TEST(EventQueue, FarFutureEventsFireInOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(kFarFuture * 3, [&order]() { order.push_back(4); });
  q.Push(kFarFuture + 5, [&order]() { order.push_back(3); });
  q.Push(kMediumGap * 2, [&order]() { order.push_back(2); });
  q.Push(17, [&order]() { order.push_back(1); });
  Tick t = -1;
  while (!q.empty()) q.Pop(&t)();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(t, kFarFuture * 3);
}

TEST(EventQueue, FarFutureSameTickBurstKeepsInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  const Tick when = kFarFuture + 12345;
  for (int i = 0; i < 64; ++i) {
    q.Push(when, [&order, i]() { order.push_back(i); });
  }
  Tick t;
  while (!q.empty()) q.Pop(&t)();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
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
    q.Push(kMediumGap * 3, [&order]() { order.push_back(2); });
    q.Push(5, [&order]() { order.push_back(1); });
    q.Push(5, [&order]() { order.push_back(11); });
    Tick t;
    while (!q.empty()) q.Pop(&t)();
    return order;
  };
  EventQueue fresh;
  const std::vector<int> want = run(fresh);

  EventQueue reused;
  reused.Push(kFarFuture + 7, nullptr);  // left pending across the Clear
  reused.Push(3, nullptr);
  Tick t;
  reused.Pop(&t);
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

TEST(EventQueue, NextTimeSkipsAndReclaimsCancelledHead) {
  EventQueue q;
  TimerHandle head = q.Push(10, nullptr);
  q.Push(20, nullptr);
  EXPECT_TRUE(head.Cancel());
  EXPECT_EQ(q.tombstones(), 1u);
  EXPECT_EQ(q.next_time(), 20);
  EXPECT_EQ(q.tombstones(), 0u);  // peeking surfaced and dropped it
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelReleasesCapturesAtOnce) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  TimerHandle h = q.Push(10, [token]() {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(h.Cancel());
  // The heap still holds a tombstone entry, but the callback is gone.
  EXPECT_EQ(q.tombstones(), 1u);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, ClearReleasesPendingCaptures) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  for (int i = 0; i < 3; ++i) q.Push(10 + i, [token]() {});
  q.Push(kFarFuture, [token]() {});
  EXPECT_EQ(token.use_count(), 5);
  q.Clear();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NullCallbackIsAPureTimer) {
  EventQueue q;
  TimerHandle h = q.Push(5, nullptr);
  EXPECT_TRUE(h.active());
  EXPECT_EQ(q.size(), 1u);
  Tick t = -1;
  EventFn fn = q.Pop(&t);
  EXPECT_EQ(t, 5);
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_FALSE(h.active());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MaxTickEventFiresLast) {
  EventQueue q;
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  std::vector<int> order;
  q.Push(kMax, [&order]() { order.push_back(3); });
  q.Push(0, [&order]() { order.push_back(1); });
  q.Push(kFarFuture, [&order]() { order.push_back(2); });
  Tick t = -1;
  while (!q.empty()) q.Pop(&t)();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(t, kMax);
}

// Seq numbers are drawn by Push and Reschedule only; Cancel, Pop and a
// refused Reschedule leave the counter alone.
TEST(EventQueue, NextSeqCountsPushesAndReschedulesOnly) {
  EventQueue q;
  TimerHandle a = q.Push(10, nullptr);
  TimerHandle b = q.Push(20, nullptr);
  q.Push(30, nullptr);
  EXPECT_EQ(q.next_seq(), 3u);
  EXPECT_TRUE(a.Reschedule(40));
  EXPECT_EQ(q.next_seq(), 4u);
  EXPECT_TRUE(b.Cancel());
  EXPECT_FALSE(b.Reschedule(50));
  Tick t;
  q.Pop(&t);
  EXPECT_EQ(t, 30);
  EXPECT_EQ(q.next_seq(), 4u);
}

// Callbacks stay in their slab node while the heap reorders its entries
// around them: every move-only capture reaches the right event.
TEST(EventQueue, MoveOnlyCapturesSurviveHeapReordering) {
  EventQueue q;
  std::mt19937_64 rng(99);
  std::vector<Tick> whens;
  std::vector<std::pair<Tick, int>> fired;  // (pop time, captured id)
  Tick t = 0;
  for (int i = 0; i < 500; ++i) {
    const Tick when = static_cast<Tick>(rng() % kMediumGap);
    whens.push_back(when);
    auto owned = std::make_unique<int>(i);
    q.Push(when, [&fired, &t, owned = std::move(owned)]() {
      fired.emplace_back(t, *owned);
    });
  }
  while (!q.empty()) q.Pop(&t)();
  ASSERT_EQ(fired.size(), 500u);
  for (size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired[k].first, whens[static_cast<size_t>(fired[k].second)]);
    if (k > 0) {
      EXPECT_LE(fired[k - 1].first, fired[k].first);
    }
  }
}

// --- Reschedule / Cancel interplay -------------------------------------------

TEST(TimerHandle, RescheduleEarlierOvertakesPendingEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.At(Microseconds(10), [&order]() { order.push_back(1); });
  sim.At(Microseconds(20), [&order]() { order.push_back(2); });
  TimerHandle h =
      sim.At(Microseconds(30), [&order]() { order.push_back(3); });
  EXPECT_TRUE(h.Reschedule(Microseconds(5)));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(sim.now(), Microseconds(20));
}

// A reschedule hands the claim to the handle that made it; copies taken
// before the move refer to the old generation and go inert.
TEST(TimerHandle, CopyGoesStaleWhenAnotherCopyReschedules) {
  Simulator sim;
  std::vector<Tick> fired_at;
  TimerHandle a =
      sim.After(Microseconds(10), [&]() { fired_at.push_back(sim.now()); });
  TimerHandle b = a;
  EXPECT_TRUE(a.Reschedule(Microseconds(40)));
  EXPECT_TRUE(a.active());
  EXPECT_FALSE(b.active());
  EXPECT_FALSE(b.Cancel());
  EXPECT_FALSE(b.Reschedule(Microseconds(60)));
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<Tick>{Microseconds(40)}));
}

TEST(TimerHandle, CancelAfterRescheduleStrandsBothEntries) {
  EventQueue q;
  int fired = 0;
  TimerHandle h = q.Push(10, [&fired]() { ++fired; });
  EXPECT_TRUE(h.Reschedule(30));
  EXPECT_TRUE(h.Cancel());
  EXPECT_FALSE(h.active());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.tombstones(), 2u);
  q.Push(50, nullptr);
  Tick t;
  q.Pop(&t);
  EXPECT_EQ(t, 50);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.tombstones(), 0u);
}

TEST(TimerHandle, RepeatedReschedulesFireOnce) {
  EventQueue q;
  int fired = 0;
  TimerHandle h = q.Push(1, [&fired]() { ++fired; });
  for (Tick when = 2; when <= 101; ++when) {
    ASSERT_TRUE(h.Reschedule(when));
  }
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.tombstones(), 100u);
  Tick t;
  q.Pop(&t)();
  EXPECT_EQ(t, 101);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.tombstones(), 0u);
}

// --- Simulator over cancelled events -----------------------------------------

TEST(Simulator, CancelledEventNeitherMovesClockNorCounts) {
  Simulator sim;
  int fired = 0;
  sim.At(Microseconds(50), [&fired]() { ++fired; });
  TimerHandle late = sim.At(Microseconds(100), [&fired]() { ++fired; });
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(late.Cancel());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.now(), Microseconds(50));
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunEventsStopsAtTheBudget) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.At(Microseconds(i + 1), [&order, i]() { order.push_back(i); });
  }
  EXPECT_EQ(sim.RunEvents(2), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.now(), Microseconds(2));
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.RunEvents(10), 3u);
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_TRUE(sim.idle());
}

// --- Property test: randomized interleavings vs a std::set oracle ---------

// Drives the queue through a randomized stream of Push, Pop, Cancel and
// Reschedule — same-tick bursts, far-future times, cancels of already-
// fired handles, reschedules to now — while a std::set of live
// (when, seq, id) keys mirrors every operation. The queue must agree with
// the oracle on pop times, fired-callback identity, operation return
// values and sizes. A second set holds the keys of stranded entries
// (cancelled or rescheduled away): a pop reclaims every one that orders
// before it, so the set must match tombstones() at every step, and a
// final pop past every stranded key must leave no tombstone behind.
TEST(EventQueue, RandomizedOpsMatchOracle) {
  constexpr int kSeeds = 10;
  constexpr int kOpsPerSeed = 10000;
  using Key = std::tuple<Tick, uint64_t, int>;  // (when, seq, id)
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull);
    EventQueue q;
    std::set<Key> live;
    std::set<Key> stranded;
    std::vector<TimerHandle> handles;  // indexed by id
    std::vector<Key> key_of;           // id's current key while live
    std::vector<int> fired;
    uint64_t seq = 0;
    Tick now = 0;

    auto random_delta = [&]() -> Tick {
      switch (rng() % 5) {
        case 0: return 0;  // same tick
        case 1: return static_cast<Tick>(rng() % kShortGap);
        case 2: return static_cast<Tick>(rng() % kMediumGap);
        case 3: return static_cast<Tick>(rng() % kFarFuture);
        default: return kFarFuture + static_cast<Tick>(rng() % kFarFuture);
      }
    };
    auto push_at = [&](Tick when) {
      const int id = static_cast<int>(handles.size());
      handles.push_back(q.Push(when, [&fired, id]() { fired.push_back(id); }));
      key_of.emplace_back(when, seq++, id);
      live.insert(key_of.back());
    };
    auto pop_one = [&]() {
      const Key want = *live.begin();
      const Tick want_when = std::get<0>(want);
      const int want_id = std::get<2>(want);
      live.erase(live.begin());
      stranded.erase(stranded.begin(), stranded.lower_bound(want));
      Tick t = -1;
      q.Pop(&t)();
      ASSERT_EQ(t, want_when) << "pop time diverged, seed " << seed;
      ASSERT_GE(t, now);
      now = t;
      ASSERT_EQ(fired.back(), want_id)
          << "fired the wrong event at t=" << t << ", seed " << seed;
    };

    for (int op = 0; op < kOpsPerSeed; ++op) {
      const uint64_t what = rng() % 100;
      if (what < 40 || q.empty()) {
        if (what < 8) {
          // Same-tick burst: several events on one future tick.
          const Tick when = now + random_delta();
          for (int i = 0; i < 5; ++i) push_at(when);
        } else {
          push_at(now + random_delta());
        }
      } else if (what < 65) {
        pop_one();
        if (HasFatalFailure()) return;
      } else if (what < 85 && !handles.empty()) {
        // Cancel a random handle — often one that already fired or was
        // cancelled before, which must be a no-op.
        const size_t id = rng() % handles.size();
        const bool pending = live.count(key_of[id]) != 0;
        ASSERT_EQ(handles[id].active(), pending);
        ASSERT_EQ(handles[id].Cancel(), pending)
            << "cancel diverged, seed " << seed;
        if (pending) {
          live.erase(key_of[id]);
          stranded.insert(key_of[id]);
        }
      } else if (!handles.empty()) {
        const size_t id = rng() % handles.size();
        const Tick when = now + (rng() % 3 == 0 ? 0 : random_delta());
        const bool pending = live.count(key_of[id]) != 0;
        ASSERT_EQ(handles[id].Reschedule(when), pending)
            << "reschedule diverged, seed " << seed;
        if (pending) {
          live.erase(key_of[id]);
          stranded.insert(key_of[id]);
          key_of[id] = {when, seq++, static_cast<int>(id)};
          live.insert(key_of[id]);
        }
      }
      ASSERT_EQ(q.size(), live.size()) << "size diverged, seed " << seed;
      ASSERT_EQ(q.tombstones(), stranded.size())
          << "tombstones diverged, seed " << seed;
      ASSERT_EQ(q.next_seq(), seq);
    }
    while (!live.empty()) {
      ASSERT_FALSE(q.empty()) << "queue drained early, seed " << seed;
      pop_one();
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(q.empty()) << "queue kept extra events, seed " << seed;
    // Tombstones that order after the last live event surface only when
    // a later event pops.
    push_at(std::numeric_limits<Tick>::max());
    pop_one();
    if (HasFatalFailure()) return;
    EXPECT_EQ(q.tombstones(), 0u) << "tombstones left, seed " << seed;
  }
}

}  // namespace
}  // namespace gimbal::sim
