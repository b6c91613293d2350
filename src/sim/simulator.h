// The discrete-event simulator driving every experiment in this repository.
//
// Single-threaded and deterministic: entities schedule callbacks at future
// simulated times; Run()/RunUntil() drain the event queue in time order.
// All latencies, bandwidths and timelines reported by the benches are
// measured in this simulated clock, so results are machine-independent.
//
// At()/After() return a TimerHandle: callers that may need to cancel or
// reschedule the event (per-IO timeouts, keepalives, reapers, pacing
// pokes) keep it; fire-and-forget callers simply drop it. See
// docs/SIMULATOR.md for the event-queue design and the ordering contract.
#pragma once

#include <cassert>
#include <cstdint>

#include "sim/event_queue.h"

namespace gimbal::sim {

class Simulator {
 public:
  // Drives a group of simulators as one logical clock. When a Simulator
  // has an engine attached (sim/shard.h attaches the sharded engine to
  // shard 0), its Run()/RunUntil() delegate to the engine so existing
  // driving code — `bed.sim().RunUntil(t)` — advances the whole sharded
  // testbed. The engine itself advances individual shards with
  // StepUntil(), which never delegates.
  class Engine {
   public:
    virtual ~Engine() = default;
    virtual void EngineRunUntil(Tick deadline) = 0;
    virtual void EngineRunToIdle() = 0;
  };

  Tick now() const { return now_; }

  // Schedule `fn` to run at absolute time `when` (>= now).
  TimerHandle At(Tick when, EventFn fn) {
    assert(when >= now_);
    return queue_.Push(when, std::move(fn));
  }

  // Schedule `fn` to run `delay` ticks from now.
  TimerHandle After(Tick delay, EventFn fn) {
    return At(now_ + delay, std::move(fn));
  }

  // Run until the event queue is empty (the whole engine's queues, when
  // this simulator fronts a sharded engine).
  void Run() {
    if (engine_) {
      engine_->EngineRunToIdle();
      return;
    }
    while (!queue_.empty()) Step();
  }

  // Run events with time <= deadline; leaves now() == deadline.
  void RunUntil(Tick deadline) {
    if (engine_) {
      engine_->EngineRunUntil(deadline);
      return;
    }
    StepUntil(deadline);
  }

  // Engine-internal form of RunUntil: never delegates, so the engine can
  // advance this shard without recursing into itself.
  void StepUntil(Tick deadline) {
    while (!queue_.empty() && queue_.next_time() <= deadline) Step();
    if (now_ < deadline) now_ = deadline;
  }

  void set_engine(Engine* engine) { engine_ = engine; }

  // Run at most `max_events` events; returns number executed.
  uint64_t RunEvents(uint64_t max_events) {
    uint64_t n = 0;
    while (n < max_events && !queue_.empty()) {
      Step();
      ++n;
    }
    return n;
  }

  bool idle() const { return queue_.empty(); }
  uint64_t events_executed() const { return events_executed_; }
  // Live (not cancelled) events still scheduled.
  size_t pending_events() const { return queue_.size(); }
  EventQueue& queue() { return queue_; }

 private:
  void Step() {
    Tick when;
    EventFn fn = queue_.Pop(&when);
    assert(when >= now_);
    now_ = when;
    ++events_executed_;
    fn();
  }

  EventQueue queue_;
  Tick now_ = 0;
  uint64_t events_executed_ = 0;
  Engine* engine_ = nullptr;
};

}  // namespace gimbal::sim
