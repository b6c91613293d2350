// Tests for sim::Resource's high-priority class, which NAND dies use to
// serve host reads ahead of programs/GC/erase slices.
#include <gtest/gtest.h>

#include <vector>

#include "sim/resource.h"

namespace gimbal::sim {
namespace {

TEST(PrioResource, HighPriorityJumpsQueue) {
  Simulator sim;
  Resource res(sim);
  std::vector<int> order;
  res.Acquire(Microseconds(100), [&]() { order.push_back(1); });  // runs
  res.Acquire(Microseconds(100), [&]() { order.push_back(2); });
  res.AcquireHigh(Microseconds(10), [&]() { order.push_back(3); });
  sim.Run();
  // The high-priority item overtakes the queued low item, but not the
  // occupant.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(PrioResource, NoPreemptionOfOccupant) {
  Simulator sim;
  Resource res(sim);
  Tick high_done = -1;
  res.Acquire(Milliseconds(3), nullptr);  // a long erase slice
  sim.At(Microseconds(10), [&]() {
    res.AcquireHigh(Microseconds(65), [&]() { high_done = sim.now(); });
  });
  sim.Run();
  // The read waits for the occupant (no mid-operation preemption).
  EXPECT_EQ(high_done, Milliseconds(3) + Microseconds(65));
}

TEST(PrioResource, HighQueueDrainsBeforeLow) {
  Simulator sim;
  Resource res(sim);
  std::vector<char> order;
  res.Acquire(Microseconds(10), [&]() { order.push_back('l'); });
  for (int i = 0; i < 3; ++i) {
    res.AcquireHigh(Microseconds(10), [&]() { order.push_back('h'); });
  }
  res.Acquire(Microseconds(10), [&]() { order.push_back('l'); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<char>{'l', 'h', 'h', 'h', 'l'}));
}

TEST(PrioResource, LowStillRunsWhenNoHigh) {
  Simulator sim;
  Resource res(sim);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    res.Acquire(Microseconds(10), [&]() { ++done; });
  }
  sim.Run();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(sim.now(), Microseconds(50));
}

TEST(PrioResource, BusyTimeAccountsBothClasses) {
  Simulator sim;
  Resource res(sim);
  res.AcquireHigh(Microseconds(10), nullptr);
  res.Acquire(Microseconds(20), nullptr);
  sim.Run();
  EXPECT_EQ(res.busy_time_total(), Microseconds(30));
  EXPECT_FALSE(res.busy());
}

TEST(PrioResource, InterleavedStream) {
  // A steady low-priority stream (GC) plus sporadic high arrivals: highs
  // always run next-after-current.
  Simulator sim;
  Resource res(sim);
  Tick high_latency = 0;
  for (int i = 0; i < 50; ++i) {
    res.Acquire(Microseconds(500), nullptr);
  }
  sim.At(Milliseconds(5), [&]() {
    Tick start = sim.now();
    res.AcquireHigh(Microseconds(65), [&, start]() {
      high_latency = sim.now() - start;
    });
  });
  sim.Run();
  // Waits at most one residual low op + its own service time.
  EXPECT_LE(high_latency, Microseconds(500 + 65));
  EXPECT_GT(high_latency, 0);
}

}  // namespace
}  // namespace gimbal::sim
