// Conservative-lookahead epoch scheduler over per-shard simulators.
//
// A sharded testbed partitions the event space structurally: shard 0 owns
// the client domain (initiators, workers, KV layer, crash timers) and each
// further shard owns one target core together with every SSD pipeline
// mapped onto it (GimbalSwitch/DRR/token bucket, device model, per-core
// Resource). Within a shard, events execute exactly as on the plain
// engine — same EventQueue, same (when, seq) ordering contract.
//
// Shards only interact through the fabric: an initiator-to-target
// submission or a target-to-client completion always crosses the modeled
// network and therefore arrives at least NetworkConfig::base_latency after
// it was sent. That minimum is the engine's *lookahead* W
// (docs/SIMULATOR.md):
//
//   epoch:    every shard, in index order on the calling thread, runs its
//             events up to the uniform horizon E = T + W - 1 (T = earliest
//             pending event anywhere); no cross-shard send issued at
//             t >= T can deliver at or before E.
//   barrier:  cross-shard sends buffered during the epoch are folded
//             into the shared link in one canonical order and injected
//             into their destination shards; they all deliver strictly
//             after E.
//
// Determinism: horizons are pure functions of queue states at the barrier
// and the barrier replays buffered sends in a canonical (send_time,
// source shard, issue order) order, so the event schedule is a function of
// the testbed alone.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/time.h"
#include "sim/simulator.h"

namespace gimbal::sim {

class ShardedEngine : public Simulator::Engine {
 public:
  struct Config {
    Tick lookahead = 0;  // min cross-shard latency; must be > 0
  };

  ShardedEngine(int num_shards, const Config& config);
  ~ShardedEngine() override;

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  Simulator& shard(int i) { return *shards_[i]; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Runs at every epoch barrier, with no shard event executing. The
  // testbed hooks the network's cross-shard replay and its trace batch
  // marks here. Keep it cheap: it runs once per epoch.
  void set_barrier_fn(std::function<void()> fn) { barrier_fn_ = std::move(fn); }

  // Runs once at the end of every EngineRunUntil / EngineRunToIdle, after
  // the final barrier. The testbed defers per-epoch observability work
  // (trace stitching) here, so it is paid per Run, not per epoch.
  void set_run_end_fn(std::function<void()> fn) {
    run_end_fn_ = std::move(fn);
  }

  // Simulator::Engine: shard 0 delegates its Run()/RunUntil() here, so
  // `testbed.sim().RunUntil(t)` drives the whole sharded testbed.
  void EngineRunUntil(Tick deadline) override;
  void EngineRunToIdle() override;

  // Epoch barriers run so far.
  uint64_t epochs() const { return epochs_; }

  // Always 0: the engine has no worker pool. Kept only for callers that
  // still report it.
  uint64_t idle_wakeups() const { return 0; }

  // Shard context of the currently-executing event, or -1 / nullptr when
  // no shard event is running (between epochs, or a plain unsharded
  // simulator).
  static int CurrentShard();
  static Simulator* CurrentSim();

 private:
  static constexpr Tick kNone = -1;

  // Computes the uniform horizon for the next epoch from the shards' queue
  // states; returns false when no event is pending at or before
  // `deadline` (kNone = no deadline).
  bool ComputeEpoch(Tick deadline);
  void RunEpoch();
  void Barrier();

  std::vector<std::unique_ptr<Simulator>> shards_;
  Tick lookahead_;
  std::function<void()> barrier_fn_;
  std::function<void()> run_end_fn_;
  uint64_t epochs_ = 0;
  Tick epoch_end_ = 0;
};

}  // namespace gimbal::sim
