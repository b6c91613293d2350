// Simulator hot-path microbenchmark (docs/SIMULATOR.md).
//
// Self-timing A/B of the two EventQueue engines — the timing wheel that
// runs every figure and the reference binary heap it replaced — plus a
// wall-clock rerun of a Fig 11-style KV scenario on both engines.
// --bench-json=PATH writes the printed tables as JSON, so the perf
// trajectory is tracked across commits (BENCH_sim.json in the repo root);
// CI runs it with --quick and uploads the JSON.
//
// Microbench scenarios (fixed seeds, steady state reached before timing):
//
//   * steady_fire     — the classic "hold" loop: pop the earliest event,
//                       advance time to it, schedule a replacement a random
//                       delta ahead. Pure (time-ordered) queue throughput.
//   * timeout_churn   — same loop, but ~90% of scheduled events are
//                       cancelled before they fire, like the per-IO timeout
//                       timers the fabric arms and tears down on completion.
//   * breakdown       — schedule / cancel / fire phases timed separately.
//
// Each scenario runs at a small and a large pending-set size; the headline
// number (the acceptance gate: >= 1.5x) is timeout_churn at 100k pending,
// the profile closest to a loaded testbed. InlineFn::heap_fallbacks() is
// sampled around the hot loops — a nonzero delta means a closure outgrew
// the inline buffer and the allocation-free claim regressed.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "kv/cluster.h"
#include "sim/event_queue.h"

using namespace gimbal;
using namespace gimbal::bench;

namespace {

using Clock = std::chrono::steady_clock;
using sim::EventQueue;
using sim::TimerHandle;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const char* ImplName(EventQueue::Impl impl) {
  return impl == EventQueue::Impl::kTimingWheel ? "timing_wheel"
                                                : "reference_heap";
}

// Random schedule-ahead delta, weighted like a testbed: mostly short IO
// stage hops, some millisecond-scale waits, rare sub-microsecond hops.
// One rng draw per delta so the generator stays a small, equal tax on
// both engines.
Tick RandomDelta(std::mt19937_64& rng) {
  const uint64_t r = rng();
  const uint64_t v = r >> 8;
  switch (r & 15) {
    case 0:
      return static_cast<Tick>(v % Microseconds(1) + 1);
    case 1:
    case 2:
    case 3:
      return static_cast<Tick>(v % Milliseconds(10) + Microseconds(1));
    default:
      return static_cast<Tick>(v % Microseconds(100) + 1);
  }
}

struct MicroResult {
  std::string scenario;
  size_t pending;
  uint64_t events;
  double wheel_eps = 0;  // events (pops) per wall-clock second
  double heap_eps = 0;
};

// Steady-state hold loop: `pending` events in flight, each pop schedules a
// replacement. With `churn`, every round also arms a 2ms "IO timeout"
// timer and cancels the oldest one — the oldest is ~1 simulated ms young
// at that point, so the cancel lands on a still-pending event, exactly
// like a completion tearing down its timeout. The queue then digests one
// tombstone per round on top of the hold traffic.
double RunHold(EventQueue::Impl impl, size_t pending, uint64_t events,
               bool churn, uint64_t seed) {
  EventQueue q(impl);
  std::mt19937_64 rng(seed);
  Tick now = 0;
  uint64_t fired = 0;
  auto on_fire = [&fired]() { ++fired; };
  for (size_t i = 0; i < pending; ++i) {
    q.Push(now + RandomDelta(rng), on_fire);
  }
  std::deque<TimerHandle> timeouts;  // armed churn timers, oldest first
  const auto step = [&]() {
    Tick when = 0;
    auto fn = q.Pop(&when);
    now = when;
    if (fn) fn();
    q.Push(now + RandomDelta(rng), on_fire);
    if (churn) {
      timeouts.push_back(q.Push(now + Milliseconds(2), on_fire));
      if (timeouts.size() > pending) {
        timeouts.front().Cancel();
        timeouts.pop_front();
      }
    }
  };
  // Warm up: reach steady state (slot distributions, pool and tombstone
  // population) untimed.
  for (uint64_t i = 0; i < 2 * pending; ++i) step();
  const auto t0 = Clock::now();
  for (uint64_t i = 0; i < events; ++i) step();
  const double sec = SecondsSince(t0);
  return static_cast<double>(events) / sec;
}

MicroResult RunScenario(const char* name, size_t pending, uint64_t events,
                        bool churn) {
  MicroResult r;
  r.scenario = name;
  r.pending = pending;
  r.events = events;
  r.wheel_eps =
      RunHold(EventQueue::Impl::kTimingWheel, pending, events, churn, 42);
  r.heap_eps =
      RunHold(EventQueue::Impl::kReferenceHeap, pending, events, churn, 42);
  return r;
}

struct Breakdown {
  double schedule_ns = 0;
  double cancel_ns = 0;
  double fire_ns = 0;
};

// Phase-timed costs: N pushes into an idle queue, cancel half by handle,
// then drain the survivors.
Breakdown RunBreakdown(EventQueue::Impl impl, uint64_t n, uint64_t seed) {
  EventQueue q(impl);
  std::mt19937_64 rng(seed);
  uint64_t fired = 0;
  auto on_fire = [&fired]() { ++fired; };
  std::vector<TimerHandle> handles;
  handles.reserve(n);
  Breakdown b;
  auto t0 = Clock::now();
  for (uint64_t i = 0; i < n; ++i) {
    handles.push_back(q.Push(RandomDelta(rng), on_fire));
  }
  b.schedule_ns = SecondsSince(t0) * 1e9 / static_cast<double>(n);
  t0 = Clock::now();
  for (uint64_t i = 0; i < n; i += 2) handles[i].Cancel();
  b.cancel_ns = SecondsSince(t0) * 1e9 / static_cast<double>(n / 2);
  t0 = Clock::now();
  uint64_t pops = 0;
  while (!q.empty()) {
    Tick when = 0;
    auto fn = q.Pop(&when);
    if (fn) fn();
    ++pops;
  }
  b.fire_ns = SecondsSince(t0) * 1e9 / static_cast<double>(pops);
  return b;
}

// Fig 11-style KV point (YCSB-B, Gimbal, fragmented SSDs), run to the same
// simulated instant on both engines; only the wall clock differs.
double Fig11Wallclock(EventQueue::Impl impl, int instances, Tick measure) {
  kv::KvClusterConfig cfg;
  cfg.testbed.scheme = Scheme::kGimbal;
  cfg.testbed.num_ssds = 2;
  cfg.testbed.target.cores = 2;
  cfg.testbed.condition = SsdCondition::kFragmented;
  cfg.testbed.ssd.logical_bytes = 128ull << 20;
  cfg.testbed.queue_impl = impl;
  cfg.testbed.run_label = std::string("bench_sim:") + ImplName(impl);
  cfg.hba.backend_bytes = 128ull << 20;
  cfg.db.memtable_bytes = 1ull << 20;
  kv::KvCluster cluster(cfg);
  std::vector<std::unique_ptr<kv::YcsbClient>> clients;
  for (int i = 0; i < instances; ++i) {
    auto& inst = cluster.AddInstance();
    inst.db->BulkLoad(5'000, 1024);
    workload::YcsbSpec spec;
    spec.workload = workload::YcsbWorkload::kB;
    spec.record_count = 5'000;
    spec.seed = static_cast<uint64_t>(i) + 1;
    clients.push_back(
        std::make_unique<kv::YcsbClient>(cluster.sim(), *inst.db, spec, 16));
  }
  for (auto& c : clients) c->Start();
  const auto t0 = Clock::now();
  cluster.sim().RunUntil(measure);
  return SecondsSince(t0);
}

std::string Ratio(double num, double den) {
  return Table::Num(den > 0 ? num / den : 0, 3);
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs_session(argc, argv);
  workload::PrintHeader(
      "bench_sim - EventQueue timing wheel vs reference heap",
      "simulator hot-path overhaul (docs/SIMULATOR.md)",
      "timing wheel >= 1.5x events/sec at testbed-like pending-set sizes");

  const uint64_t kEvents = Quick() ? 200'000 : 2'000'000;
  const uint64_t fallbacks_before = sim::InlineFn::heap_fallbacks();
  std::vector<MicroResult> results;
  results.push_back(RunScenario("steady_fire", 1'000, kEvents, false));
  results.push_back(RunScenario("steady_fire", 100'000, kEvents, false));
  results.push_back(RunScenario("timeout_churn", 1'000, kEvents, true));
  results.push_back(RunScenario("timeout_churn", 100'000, kEvents, true));
  const MicroResult& headline = results.back();
  const uint64_t fallbacks_after = sim::InlineFn::heap_fallbacks();

  // steady_fire: pop-advance-push hold loop; timeout_churn: every round
  // also arms a timeout and cancels one.
  Table micro("EventQueue hold loop (events/sec)");
  micro.Columns({"scenario", "pending", "events", "wheel_events_per_sec",
                 "heap_events_per_sec", "speedup"});
  for (const MicroResult& r : results) {
    micro.Row({r.scenario, std::to_string(r.pending), std::to_string(r.events),
               Table::Num(r.wheel_eps, 0), Table::Num(r.heap_eps, 0),
               Ratio(r.wheel_eps, r.heap_eps)});
  }
  micro.Print();

  const uint64_t kBreakN = Quick() ? 100'000 : 1'000'000;
  Table bd("Per-op breakdown (ns/op, " + std::to_string(kBreakN) + " events)");
  bd.Columns({"engine", "schedule", "cancel", "fire"});
  for (EventQueue::Impl impl : {EventQueue::Impl::kTimingWheel,
                                EventQueue::Impl::kReferenceHeap}) {
    const Breakdown b = RunBreakdown(impl, kBreakN, 7);
    bd.Row({ImplName(impl), Table::Num(b.schedule_ns),
            Table::Num(b.cancel_ns), Table::Num(b.fire_ns)});
  }
  bd.Print();

  const int kInstances = Quick() ? 2 : 4;
  const Tick kMeasure = Quick() ? Milliseconds(50) : Milliseconds(200);
  const double fig11_wheel =
      Fig11Wallclock(EventQueue::Impl::kTimingWheel, kInstances, kMeasure);
  const double fig11_heap =
      Fig11Wallclock(EventQueue::Impl::kReferenceHeap, kInstances, kMeasure);
  Table kv("Fig 11-style KV rerun (wall clock)");
  kv.Columns({"instances", "simulated_ms", "wheel_ms", "heap_ms",
              "speedup"});
  kv.Row({std::to_string(kInstances), Table::Num(ToSec(kMeasure) * 1e3, 0),
          Table::Num(fig11_wheel * 1e3), Table::Num(fig11_heap * 1e3),
          Ratio(fig11_heap, fig11_wheel)});
  kv.Print();

  Table sum("Summary");
  sum.Columns({"metric", "value"});
  sum.Row({"inline_fn_capacity",
           std::to_string(sim::InlineFn::kInlineCapacity)});
  sum.Row({"inline_fn_heap_fallbacks",
           std::to_string(fallbacks_after - fallbacks_before)});
  sum.Row({"headline_timeout_churn_100k_speedup",
           Ratio(headline.wheel_eps, headline.heap_eps)});
  sum.Row({"headline_target", "1.5"});
  sum.Print();
  return 0;
}
