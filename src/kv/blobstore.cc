#include "kv/blobstore.h"

#include <cassert>
#include <memory>
#include <utility>

#include "obs/schema.h"

namespace gimbal::kv {

void Blobstore::Attach(const obs::Sinks& sinks) {
  obs_ = sinks.obs;
  chk_ = sinks.chk;
  instance_ = sinks.label;
  if (!obs_) return;
  const obs::Labels l = obs::Labels::TenantSsd(instance_, -1);
  m_failover_ = &obs_->metrics.GetCounter(obs::schema::kKvFailoverReads, l);
  m_degraded_ = &obs_->metrics.GetCounter(obs::schema::kKvDegradedWrites, l);
  m_rebuild_bytes_ =
      &obs_->metrics.GetCounter(obs::schema::kKvRebuildBytes, l);
  m_dirty_ = &obs_->metrics.GetGauge(obs::schema::kKvDirtyReplicas, l);
}

void Blobstore::ObserveStatus(int backend, IoStatus status) {
  uint8_t& d = down_[static_cast<size_t>(backend)];
  if (status == IoStatus::kDeviceFailed) {
    d = 1;
  } else if (status == IoStatus::kOk && d != 0) {
    // The backend served an IO again: it recovered. Wake the rebuild
    // scanner — dirty replicas destined here can drain now.
    d = 0;
    if (dirty_cb_ && !dirty_.empty()) dirty_cb_();
  }
}

void Blobstore::Read(const BlobAddr& addr, IoPriority prio, DoneFn done) {
  assert(addr.valid());
  ++stats_.reads;
  stats_.read_bytes += addr.bytes;
  backends_[static_cast<size_t>(addr.backend)]->Submit(
      IoType::kRead, addr.offset, PageAligned(addr.bytes), prio,
      [this, backend = addr.backend, done = std::move(done)](
          const IoCompletion& cpl, Tick) {
        ObserveStatus(backend, cpl.status);
        if (done) done(cpl.status);
      });
}

void Blobstore::Write(const BlobAddr& addr, IoPriority prio, DoneFn done) {
  assert(addr.valid());
  ++stats_.writes;
  stats_.write_bytes += addr.bytes;
  backends_[static_cast<size_t>(addr.backend)]->Submit(
      IoType::kWrite, addr.offset, PageAligned(addr.bytes), prio,
      [this, backend = addr.backend, done = std::move(done)](
          const IoCompletion& cpl, Tick) {
        ObserveStatus(backend, cpl.status);
        if (done) done(cpl.status);
      });
}

void Blobstore::Trim(const BlobAddr& addr) {
  assert(addr.valid());
  ++stats_.trims;
  backends_[static_cast<size_t>(addr.backend)]->Trim(addr.offset,
                                                     PageAligned(addr.bytes));
  // Dirty entries whose data (either copy) this trim kills are moot: the
  // blob was freed (flushed WAL, compacted table) before its repair ran.
  for (auto it = dirty_.begin(); it != dirty_.end();) {
    if (Overlap(it->dirty, addr) || Overlap(it->source, addr)) {
      ++stats_.dirty_dropped;
      if (chk_) {
        chk_->OnKvDirtyDrop(static_cast<TenantId>(instance_),
                            it->dirty.backend, it->dirty.bytes);
      }
      it = dirty_.erase(it);
    } else {
      ++it;
    }
  }
  UpdateDirtyGauge();
}

// ---------------------------------------------------------------------------
// Replicated writes + dirty-replica ledger
// ---------------------------------------------------------------------------

void Blobstore::UpdateDirtyGauge() {
  if (m_dirty_) m_dirty_->Set(static_cast<double>(dirty_.size()));
}

void Blobstore::RecordDirty(const BlobAddr& dirty, const BlobAddr& source) {
  ++stats_.dirty_recorded;
  dirty_.push_back(DirtyReplica{dirty, source});
  if (chk_) {
    chk_->OnKvDirtyRecord(static_cast<TenantId>(instance_), dirty.backend,
                          dirty.bytes);
  }
  UpdateDirtyGauge();
  if (dirty_cb_) dirty_cb_();
}

bool Blobstore::TakeDirty(DirtyReplica* out) {
  if (dirty_.empty()) return false;
  *out = dirty_.front();
  dirty_.pop_front();
  UpdateDirtyGauge();
  return true;
}

void Blobstore::RequeueDirty(const DirtyReplica& d) {
  dirty_.push_back(d);
  UpdateDirtyGauge();
}

void Blobstore::MarkRepaired(const DirtyReplica& d) {
  ++stats_.dirty_repaired;
  stats_.rebuild_bytes += d.dirty.bytes;
  if (m_rebuild_bytes_) m_rebuild_bytes_->Add(d.dirty.bytes);
  if (chk_) {
    chk_->OnKvDirtyRepair(static_cast<TenantId>(instance_), d.dirty.backend,
                          d.dirty.bytes);
  }
  if (obs_) {
    obs_->tracer.Instant(
        sim_.now(), obs::schema::kEvKvRebuild,
        obs::Labels::TenantSsd(instance_, d.dirty.backend),
        {{"bytes", static_cast<double>(d.dirty.bytes)}});
  }
  UpdateDirtyGauge();
}

void Blobstore::WriteReplicated(const ReplicaPair& blob, IoPriority prio,
                                DoneFn done) {
  const BlobAddr& primary = blob.primary;
  const BlobAddr& shadow = blob.shadow;
  if (!shadow.valid()) {
    Write(primary, prio, std::move(done));
    return;
  }
  if (chk_) {
    // Every replicated write proves its placement: the two copies must sit
    // on distinct failure domains (kv.placement.domain, docs/TESTING.md).
    chk_->OnKvReplicaPlacement(static_cast<TenantId>(instance_),
                               primary.backend, shadow.backend,
                               NodeOf(primary.backend),
                               NodeOf(shadow.backend));
  }
  struct JoinCtx {
    int remaining = 2;
    IoStatus primary_status = IoStatus::kOk;
    IoStatus shadow_status = IoStatus::kOk;
  };
  auto ctx = std::make_shared<JoinCtx>();
  auto joint = [this, ctx, primary, shadow,
                done = std::move(done)]() {
    if (--ctx->remaining != 0) return;
    const bool p_ok = ctx->primary_status == IoStatus::kOk;
    const bool s_ok = ctx->shadow_status == IoStatus::kOk;
    if (p_ok && s_ok) {
      if (chk_) {
        chk_->OnKvWriteAck(static_cast<TenantId>(instance_), primary.backend,
                           /*durable=*/2, /*acked=*/true);
      }
      if (done) done(IoStatus::kOk);
      return;
    }
    if (p_ok != s_ok) {
      const IoStatus bad =
          p_ok ? ctx->shadow_status : ctx->primary_status;
      if (bad == IoStatus::kAborted) {
        // Teardown, not a fault: the caller is shutting down and must not
        // treat the write as replicated-durable.
        if (done) done(IoStatus::kAborted);
        return;
      }
      // Quorum-of-available: one copy is durable — ack, and queue the
      // missing copy for background re-replication.
      ++stats_.degraded_writes;
      if (m_degraded_) m_degraded_->Add();
      const BlobAddr& dirty = p_ok ? shadow : primary;
      const BlobAddr& source = p_ok ? primary : shadow;
      if (obs_) {
        obs_->tracer.Instant(
            sim_.now(), obs::schema::kEvKvDegradedWrite,
            obs::Labels::TenantSsd(instance_, dirty.backend),
            {{"bytes", static_cast<double>(dirty.bytes)},
             {"status", static_cast<double>(bad)}});
      }
      RecordDirty(dirty, source);
      if (chk_) {
        chk_->OnKvWriteAck(static_cast<TenantId>(instance_), dirty.backend,
                           /*durable=*/1, /*acked=*/true);
      }
      if (done) done(IoStatus::kOk);
      return;
    }
    // Both replicas failed: no ack — propagate so the caller retries (the
    // WAL holds its waiters, so no acked write is lost by construction).
    if (chk_) {
      chk_->OnKvWriteAck(static_cast<TenantId>(instance_), primary.backend,
                         /*durable=*/0, /*acked=*/false);
    }
    const IoStatus st = ctx->primary_status != IoStatus::kAborted
                            ? ctx->primary_status
                            : ctx->shadow_status;
    if (done) done(st);
  };
  Write(primary, prio, [ctx, joint](IoStatus st) {
    ctx->primary_status = st;
    joint();
  });
  Write(shadow, prio, [ctx, joint](IoStatus st) {
    ctx->shadow_status = st;
    joint();
  });
}

// ---------------------------------------------------------------------------
// Load-balanced reads with failover
// ---------------------------------------------------------------------------

void Blobstore::StartRead(const std::shared_ptr<ReadCtx>& ctx,
                          bool use_shadow) {
  const BlobAddr& addr = use_shadow ? ctx->blob.shadow : ctx->blob.primary;
  ++ctx->attempts;
  if (use_shadow) ++stats_.balanced_to_shadow;
  Read(addr, ctx->prio, [this, ctx, use_shadow](IoStatus st) {
    if (st == IoStatus::kOk || st == IoStatus::kAborted ||
        ctx->attempts >= ctx->budget) {
      if (ctx->done) ctx->done(st);
      return;
    }
    // Failover: retry the other replica (or the same one when this blob is
    // unreplicated) after the initiator-policy backoff for this attempt.
    const bool next_shadow = ctx->blob.shadow.valid() && !use_shadow;
    const BlobAddr& next = next_shadow ? ctx->blob.shadow : ctx->blob.primary;
    ++stats_.failover_reads;
    if (m_failover_) m_failover_->Add();
    if (obs_) {
      obs_->tracer.Instant(
          sim_.now(), obs::schema::kEvKvFailover,
          obs::Labels::TenantSsd(instance_, next.backend),
          {{"attempt", static_cast<double>(ctx->attempts)},
           {"status", static_cast<double>(st)}});
    }
    const Tick backoff = RetryBackoff(next.backend, ctx->attempts);
    if (backoff > 0) {
      sim_.After(backoff,
                 [this, ctx, next_shadow]() { StartRead(ctx, next_shadow); });
    } else {
      StartRead(ctx, next_shadow);
    }
  });
}

void Blobstore::ReadBalanced(const ReplicaPair& blob, IoPriority prio,
                             DoneFn done) {
  const BlobAddr& primary = blob.primary;
  const BlobAddr& shadow = blob.shadow;
  // An unreplicated blob has no failover target, but its single copy is
  // still budget-retried on transient errors (media-error windows end).
  bool shadow_wins = false;
  if (shadow.valid()) {
    // §4.3: the replica whose remote SSD holds more credits absorbs the
    // read. Credits are only refreshed by completions on that backend, so
    // a small fraction of reads deliberately probes the *less*-credited
    // replica to keep its estimate fresh (else a cold backend's stale low
    // credit would pin all traffic to one copy forever).
    if (load_balance_reads_) {
      shadow_wins = credits(shadow.backend) > credits(primary.backend);
      if (++lb_rr_ % 16 == 0) shadow_wins = !shadow_wins;
    }
    // Never knowingly read a down backend while the other copy is up —
    // this also keeps the forced probe off a failed replica (it re-learns
    // health through the failover path's completions instead).
    if (shadow_wins && backend_down(shadow.backend) &&
        !backend_down(primary.backend)) {
      shadow_wins = false;
    } else if (!shadow_wins && backend_down(primary.backend) &&
               !backend_down(shadow.backend)) {
      shadow_wins = true;
    }
  }
  auto ctx = std::make_shared<ReadCtx>();
  ctx->blob = blob;
  ctx->prio = prio;
  ctx->done = std::move(done);
  ctx->budget = ReadBudget(primary.backend);
  StartRead(ctx, shadow_wins);
}

}  // namespace gimbal::kv
