// Background re-replication: drains the blobstore's dirty-replica ledger
// (docs/FAULTS.md).
//
// A degraded replicated write leaves one copy missing; each ledger entry
// names the dirty address and the surviving source. The scanner repairs one
// entry at a time at background priority — read the source, rewrite the
// dirty copy — so rebuild traffic competes with flush/compaction, not with
// foreground reads.
//
// Recovery detection is probe-by-repair: a repair against a still-failed
// backend fails fast (the policy drains a failed SSD's queue), the entry is
// requeued, and the next attempt waits a capped exponential backoff reusing
// the initiator's retry policy. The first attempt after the SSD recovers
// simply succeeds — no subscription to the injector's health machine is
// needed, which matters under the sharded engine: health machines live on
// SSD shards, and reading them from the client shard would make the
// client's view depend on shard order within an epoch. Completions
// observed by the blobstore also Poke() the scanner when a down backend
// serves an IO again.
//
// Fault-free runs never record dirty replicas, so the scanner arms no
// timers and is entirely absent from the event schedule.
#pragma once

#include "kv/blobstore.h"
#include "sim/simulator.h"

namespace gimbal::kv {

class RebuildScanner {
 public:
  RebuildScanner(sim::Simulator& sim, Blobstore& blobs,
                 IoPriority prio = IoPriority::kLow)
      : sim_(sim), blobs_(blobs), prio_(prio) {}

  // Wake the scanner: a dirty replica was recorded, or a down backend was
  // observed up again. Wired as the blobstore's dirty callback.
  void Poke() { Pump(); }

  bool active() const { return active_; }

  struct Stats {
    uint64_t repairs = 0;
    uint64_t failed_attempts = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void Pump();
  void FinishAttempt(const Blobstore::DirtyReplica& d, IoStatus st);

  sim::Simulator& sim_;
  Blobstore& blobs_;
  IoPriority prio_;
  bool active_ = false;        // one repair in flight at a time
  int consecutive_fails_ = 0;  // drives the probe backoff
  Stats stats_;
};

}  // namespace gimbal::kv
