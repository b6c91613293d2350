#include "kv/rebuild.h"

#include "kv/db.h"

namespace gimbal::kv {

void RebuildScanner::Pump() {
  if (active_) return;
  Blobstore::DirtyReplica d;
  if (!blobs_.TakeDirty(&d)) return;
  active_ = true;
  // Read the surviving copy, then rewrite the dirty one. The dirty address
  // is no failover target (its copy is the one missing), so the source is
  // read directly; if the source's backend degrades mid-rebuild the
  // attempt fails and requeues like any other.
  blobs_.Read(d.source, kBackgroundPriority, [this, d](IoStatus read_st) {
    if (read_st != IoStatus::kOk) {
      FinishAttempt(d, read_st);
      return;
    }
    blobs_.Write(d.dirty, kBackgroundPriority, [this, d](IoStatus write_st) {
      FinishAttempt(d, write_st);
    });
  });
}

void RebuildScanner::FinishAttempt(const Blobstore::DirtyReplica& d,
                                   IoStatus st) {
  active_ = false;
  if (st == IoStatus::kOk) {
    ++stats_.repairs;
    consecutive_fails_ = 0;
    blobs_.MarkRepaired(d);
    Pump();
    return;
  }
  ++stats_.failed_attempts;
  blobs_.RequeueDirty(d);
  if (st == IoStatus::kAborted) {
    // Teardown: the initiator is shutting down. Go quiet instead of
    // spinning against it; a Poke() restarts the drain if one ever comes.
    return;
  }
  // Probe-by-repair: back off (capped exponential, the initiator's own
  // policy) and try again. The attempt that lands after the SSD's recovery
  // succeeds and resets the backoff.
  ++consecutive_fails_;
  const Tick backoff = blobs_.RetryBackoff(d.dirty.backend,
                                           consecutive_fails_);
  sim_.After(backoff > 0 ? backoff : 1, [this]() { Pump(); });
}

}  // namespace gimbal::kv
