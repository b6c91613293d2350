#include "sim/shard.h"

#include <algorithm>
#include <cassert>

namespace gimbal::sim {

namespace {
int current_shard = -1;
Simulator* current_sim = nullptr;
}  // namespace

int ShardedEngine::CurrentShard() { return current_shard; }
Simulator* ShardedEngine::CurrentSim() { return current_sim; }

ShardedEngine::ShardedEngine(int num_shards, const Config& config)
    : lookahead_(config.lookahead) {
  assert(num_shards >= 1);
  assert(lookahead_ > 0 && "conservative lookahead requires a positive "
                           "minimum cross-shard latency");
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  shards_[0]->set_engine(this);
}

ShardedEngine::~ShardedEngine() { shards_[0]->set_engine(nullptr); }

bool ShardedEngine::ComputeEpoch(Tick deadline) {
  Tick earliest = kNone;
  for (auto& s : shards_) {
    EventQueue& q = s->queue();
    if (q.empty()) continue;
    const Tick t = q.next_time();
    if (earliest == kNone || t < earliest) earliest = t;
  }
  if (earliest == kNone || (deadline != kNone && earliest > deadline)) {
    return false;
  }
  // Uniform conservative bound: any shard may send to any other, and no
  // send issued at or after `earliest` can deliver inside the epoch.
  epoch_end_ = earliest + lookahead_ - 1;
  if (deadline != kNone) epoch_end_ = std::min(epoch_end_, deadline);
  return true;
}

void ShardedEngine::RunEpoch() {
  // A shard with nothing due just has its clock advanced, so injected
  // deliveries and later control-context At() calls see a consistent now.
  const int n = num_shards();
  for (int i = 0; i < n; ++i) {
    current_shard = i;
    current_sim = shards_[static_cast<size_t>(i)].get();
    current_sim->StepUntil(epoch_end_);
  }
  current_shard = -1;
  current_sim = nullptr;
}

void ShardedEngine::Barrier() {
  ++epochs_;
  if (barrier_fn_) barrier_fn_();
}

void ShardedEngine::EngineRunUntil(Tick deadline) {
  // Replay sends buffered from control context (e.g. a Shutdown() between
  // runs) before the first epoch: running an epoch first could advance a
  // shard's clock past the buffered send's delivery time.
  Barrier();
  while (ComputeEpoch(deadline)) {
    RunEpoch();
    Barrier();
  }
  for (auto& s : shards_) {
    if (s->now() < deadline) s->StepUntil(deadline);
  }
  if (run_end_fn_) run_end_fn_();
}

void ShardedEngine::EngineRunToIdle() {
  Barrier();  // see EngineRunUntil
  while (ComputeEpoch(kNone)) {
    RunEpoch();
    Barrier();
  }
  if (run_end_fn_) run_end_fn_();
}

}  // namespace gimbal::sim
