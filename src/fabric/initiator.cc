#include "fabric/initiator.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "core/params.h"
#include "obs/schema.h"

namespace gimbal::fabric {

Initiator::Initiator(sim::Simulator& sim, Network& net, Target& target,
                     int pipeline, TenantId tenant, ThrottleMode mode,
                     baselines::PardaParams parda, RetryParams retry,
                     ConnectMode connect)
    : sim_(sim), net_(net), target_(target), pipeline_(pipeline),
      tenant_(tenant), mode_(mode), retry_(retry) {
  if (mode_ == ThrottleMode::kParda) {
    parda_ = std::make_unique<baselines::PardaWindow>(parda);
  }
  if (connect == ConnectMode::kDirect) {
    target_.Connect(pipeline_, tenant_, this);
  } else {
    // The connect capsule leads every command on the FIFO fabric, so the
    // sink is registered before the first completion could need it.
    ++control_inflight_;
    net_.Send(Direction::kClientToTarget, pipeline_, kCapsuleBytes, [this]() {
      --control_inflight_;
      target_.OnConnectCapsule(pipeline_, tenant_, this);
    });
  }
  if (retry_.keepalive_interval > 0) {
    keepalive_timer_ =
        sim_.After(retry_.keepalive_interval, [this]() { KeepaliveTick(); });
  }
}

void Initiator::KeepaliveTick() {
  // The heartbeat dies with the process — that silence is exactly what the
  // target's session reaper detects after a Crash(). Shutdown/Crash cancel
  // the armed timer, so this guard only covers a same-tick race.
  if (shutdown_) return;
  ++control_inflight_;
  net_.Send(Direction::kClientToTarget, pipeline_, kCapsuleBytes, [this]() {
    --control_inflight_;
    target_.OnKeepaliveCapsule(pipeline_, tenant_);
  });
  keepalive_timer_ =
      sim_.After(retry_.keepalive_interval, [this]() { KeepaliveTick(); });
}

bool Initiator::CanIssue() const {
  switch (mode_) {
    case ThrottleMode::kNone:
      return true;
    case ThrottleMode::kCredit:
      // Algorithm 3: submit while credit_tot > inflight.
      return credit_total_ + (GIMBAL_MUT(kCreditLeak) ? 1u : 0u) > inflight_;
    case ThrottleMode::kParda:
      return parda_->CanIssue(inflight_);
  }
  return true;
}

void Initiator::Submit(IoType type, uint64_t offset, uint32_t length,
                       IoPriority prio, DoneFn done) {
  if (shutdown_) {
    // Rejected at the door: never admitted, so it counts toward neither
    // the submitted nor the failed totals.
    if (done) {
      IoCompletion cpl;
      cpl.tenant = tenant_;
      cpl.type = type;
      cpl.length = length;
      cpl.status = IoStatus::kAborted;
      sim_.After(0, [done = std::move(done), cpl]() { done(cpl, 0); });
    }
    return;
  }
  if (length > kMaxTransferBytes) {
    // MDTS splitting: chain commands of at most the fabric's maximum
    // transfer size; the caller's completion fires when the last chunk
    // returns, reporting the aggregate length.
    auto remaining = std::make_shared<uint32_t>(
        (length + kMaxTransferBytes - 1) / kMaxTransferBytes);
    auto shared_done = std::make_shared<DoneFn>(std::move(done));
    // The chain fails as a unit: the aggregate carries the first non-ok
    // chunk status.
    auto worst = std::make_shared<IoStatus>(IoStatus::kOk);
    uint32_t total = length;
    for (uint64_t off = offset; off < offset + length;
         off += kMaxTransferBytes) {
      uint32_t chunk = static_cast<uint32_t>(
          std::min<uint64_t>(kMaxTransferBytes, offset + length - off));
      Submit(type, off, chunk, prio,
             [remaining, shared_done, worst, total](const IoCompletion& cpl,
                                                    Tick e2e) {
               if (!cpl.ok() && *worst == IoStatus::kOk) *worst = cpl.status;
               if (--*remaining > 0) return;
               if (*shared_done) {
                 IoCompletion agg = cpl;
                 agg.length = total;
                 agg.status = *worst;
                 (*shared_done)(agg, e2e);
               }
             });
    }
    return;
  }
  if (next_id_ - oldest_id_ == window_.size()) GrowWindow();
  Pending& p = Slot(next_id_);
  p.req.id = next_id_++;
  p.req.tenant = tenant_;
  p.req.type = type;
  p.req.offset = offset;
  p.req.length = length;
  p.req.priority = prio;
  p.done = std::move(done);
  // Admitted: from here the IO must reach exactly one terminal status
  // (ok/failed), which is the no-IO-lost invariant the fault tests sweep.
  if (obs_) obs_->submitted->Add(1);
  if (chk_) chk_->OnClientAdmit(tenant_, pipeline_, queued());
  IssueLoop();
}

void Initiator::GrowWindow() {
  std::vector<Pending> grown(window_.empty() ? 1 : 2 * window_.size());
  for (uint64_t id = oldest_id_; id < next_id_; ++id) {
    grown[id & (grown.size() - 1)] = std::move(Slot(id));
  }
  window_ = std::move(grown);
}

Initiator::Pending* Initiator::Issued(uint64_t id) {
  if (id < oldest_id_ || id >= issue_cursor_) return nullptr;
  Pending& p = Slot(id);
  return p.attempts > 0 ? &p : nullptr;
}

void Initiator::Release(Pending& p) {
  // Resetting releases whatever the callback captured now, not when the
  // slot is next reused.
  p = Pending{};
  while (oldest_id_ < issue_cursor_ && Slot(oldest_id_).attempts == 0) {
    ++oldest_id_;
  }
}

void Initiator::FailLocally(Pending& p, IoStatus status, bool was_issued) {
  IoCompletion cpl;
  cpl.id = p.req.id;
  cpl.tenant = tenant_;
  cpl.type = p.req.type;
  cpl.length = p.req.length;
  cpl.status = status;
  const Tick e2e =
      p.req.client_submit > 0 ? sim_.now() - p.req.client_submit : 0;
  if (obs_) obs_->failed->Add(1);
  if (chk_) {
    chk_->OnClientTerminal(tenant_, pipeline_, /*ok=*/false, was_issued,
                           inflight_);
  }
  if (p.done) {
    sim_.After(0, [done = std::move(p.done), cpl, e2e]() { done(cpl, e2e); });
  }
  Release(p);
}

void Initiator::FailQueued() {
  // In submission order. Nothing is admitted after Shutdown()/Crash(), so
  // the failed ids are simply dropped from the window's tail.
  for (uint64_t id = issue_cursor_; id < next_id_; ++id) {
    FailLocally(Slot(id), IoStatus::kAborted, /*was_issued=*/false);
  }
  next_id_ = issue_cursor_;
}

void Initiator::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  keepalive_timer_.Cancel();
  // Issued IOs keep their timeout timers: each either completes normally
  // or is aborted when its timer fires (no retransmission follows a
  // disconnect). Fail everything still queued locally.
  FailQueued();
  // The checker frees this session's ledger once the issued tail drains.
  if (chk_) chk_->OnClientClose(tenant_, pipeline_);
  // The disconnect capsule trails any already-issued commands (the fabric
  // is FIFO per direction), so the target sees them first.
  ++control_inflight_;
  net_.Send(Direction::kClientToTarget, pipeline_, kCapsuleBytes, [this]() {
    --control_inflight_;
    target_.OnDisconnectCapsule(pipeline_, tenant_);
  });
}

void Initiator::Crash() {
  if (shutdown_) return;
  shutdown_ = true;
  crashed_ = true;
  keepalive_timer_.Cancel();
  if (obs_) {
    obs_->obs->tracer.Instant(
        sim_.now(), obs::schema::kEvTenantCrash,
        obs::Labels::TenantSsd(static_cast<int32_t>(tenant_), pipeline_));
  }
  // Everything the process held dies with it: queued and issued IOs fail
  // locally, no disconnect capsule crosses the fabric, the keepalive loop
  // stops. The target learns of the death from its session timeout;
  // completions still in flight arrive for unknown ids and count as late.
  FailQueued();
  // Then the issued IOs, by ascending id.
  for (uint64_t id = oldest_id_; id < issue_cursor_; ++id) {
    Pending* p = Issued(id);
    if (p == nullptr) continue;
    --inflight_;
    p->timer.Cancel();
    FailLocally(*p, IoStatus::kAborted, /*was_issued=*/true);
  }
  if (chk_) chk_->OnClientClose(tenant_, pipeline_);
}

void Initiator::Trim(uint64_t offset, uint32_t length) {
  ++control_inflight_;
  net_.Send(Direction::kClientToTarget, pipeline_, kCapsuleBytes,
            [this, offset, length]() {
              --control_inflight_;
              target_.OnTrimCapsule(pipeline_, offset, length);
            });
}

void Initiator::SendCommand(const IoRequest& req) {
  // Step (a): the command capsule crosses the fabric. Small writes inline
  // their payload into the capsule; larger writes move later via the
  // target's RDMA_READ.
  uint64_t capsule = kCapsuleBytes;
  if (req.type == IoType::kWrite && req.length <= kInlineWriteBytes) {
    capsule += req.length;
  }
  net_.Send(Direction::kClientToTarget, pipeline_, capsule, [this, req]() {
    target_.OnCommandCapsule(pipeline_, req);
  });
}

void Initiator::IssueLoop() {
  while (issue_cursor_ < next_id_ && CanIssue()) {
    Pending& p = Slot(issue_cursor_++);
    p.req.client_submit = sim_.now();
    p.attempts = 1;
    ++inflight_;
    const IoRequest req = p.req;
    if (chk_) {
      chk_->OnClientIssue(tenant_, pipeline_, queued(), inflight_,
                          credit_total_, mode_ == ThrottleMode::kCredit);
    }
    SendCommand(req);
    ArmTimeout(req.id, 1);
  }
}

void Initiator::ArmTimeout(uint64_t id, int attempt) {
  if (retry_.io_timeout <= 0) return;
  Pending* p = Issued(id);
  assert(p != nullptr);
  p->timer.Cancel();  // no-op unless a stale timer is still armed
  p->timer = sim_.After(
      retry_.io_timeout, [this, id, attempt]() { OnTimeout(id, attempt); });
}

void Initiator::OnTimeout(uint64_t id, int attempt) {
  Pending* slot = Issued(id);
  // Completed meanwhile, superseded by a newer attempt's timer, or swept
  // up by Crash(): this timer is stale.
  if (slot == nullptr || slot->attempts != attempt) return;
  Pending& p = *slot;
  if (shutdown_ || p.attempts > retry_.max_retries) {
    // Terminal: retry budget exhausted (status=timeout), or the connection
    // shut down while the completion was missing — no retransmission will
    // follow a disconnect, so the IO is aborted rather than left dangling.
    // A still-later completion of some attempt hits the unknown-id path.
    const IoStatus status =
        shutdown_ ? IoStatus::kAborted : IoStatus::kTimeout;
    if (!shutdown_) {
      ++timeouts_;
      if (obs_) {
        obs_->timeouts->Add(1);
        obs_->obs->tracer.Instant(
            sim_.now(), obs::schema::kEvTimeout,
            obs::Labels::TenantSsd(static_cast<int32_t>(tenant_), pipeline_),
            {{"attempts", static_cast<double>(p.attempts)}});
      }
    }
    --inflight_;
    FailLocally(p, status, /*was_issued=*/true);
    IssueLoop();
    return;
  }
  // Retry n (1-based) retransmits the SAME command id after a bounded
  // exponential backoff, so a late completion of any attempt still
  // completes the IO; the target may execute a command twice, which is why
  // fault-time accounting balances at the client, not the target
  // (docs/FAULTS.md). The IO stays issued during the backoff.
  const int retry_n = p.attempts;
  const Tick backoff = BackoffFor(retry_, retry_n);
  ++retries_;
  if (obs_) {
    obs_->retries->Add(1);
    obs_->obs->tracer.Instant(
        sim_.now(), obs::schema::kEvRetry,
        obs::Labels::TenantSsd(static_cast<int32_t>(tenant_), pipeline_),
        {{"retry", static_cast<double>(retry_n)},
         {"backoff_ns", static_cast<double>(backoff)}});
  }
  p.timer = sim_.After(backoff, [this, id, attempt]() {
    Pending* q = Issued(id);
    if (q == nullptr || q->attempts != attempt) return;
    if (shutdown_) {
      // Shut down mid-backoff: no retransmission will follow, so the IO
      // terminates here instead of dangling without a timer.
      --inflight_;
      FailLocally(*q, IoStatus::kAborted, /*was_issued=*/true);
      return;
    }
    const int next = ++q->attempts;
    SendCommand(q->req);
    ArmTimeout(id, next);
  });
}

void Initiator::OnFabricCompletion(const IoCompletion& cpl) {
  Pending* slot = Issued(cpl.id);
  if (slot == nullptr) {
    // Late completion of an attempt that already timed out (or of an IO
    // failed by Crash), or the duplicate produced by a retry the target
    // executed twice. The IO already reached its terminal status; this
    // straggler is counted and dropped.
    ++late_completions_;
    if (obs_) obs_->late->Add(1);
    return;
  }
  --inflight_;
  // Completion beats the timeout: tear the timer down instead of leaving a
  // dead event to churn the queue until it fires.
  slot->timer.Cancel();
  const Tick e2e = sim_.now() - slot->req.client_submit;
  // Out of the window before `done` runs: it may Submit (growing the
  // window) or tear the session down.
  const DoneFn done = std::move(slot->done);
  Release(*slot);

  if (chk_) {
    if (cpl.credit > 0) {
      chk_->OnClientCreditUpdate(tenant_, pipeline_, cpl.credit);
    }
    chk_->OnClientTerminal(tenant_, pipeline_, cpl.ok(), /*was_issued=*/true,
                           inflight_);
  }
  if (cpl.credit > 0) credit_total_ = cpl.credit;  // §3.6 credit update
  // Faulted completions carry no queueing-delay signal: keep them out of
  // the PARDA latency window, as the target keeps them out of its EWMAs.
  if (mode_ == ThrottleMode::kParda && cpl.ok()) {
    parda_->OnCompletion(e2e, sim_.now());
  }

  if (obs_) {
    if (cpl.ok()) {
      obs_->completed->Add(1);
      obs_->completed_bytes->Add(cpl.length);
    } else {
      obs_->failed->Add(1);
    }
  }
  if (done) done(cpl, e2e);
  IssueLoop();
}

void Initiator::Attach(const obs::Sinks& sinks) {
  chk_ = sinks.chk;
  obs::Observability* obs = sinks.obs;
  if (!obs) return;
  namespace schema = obs::schema;
  // Folded label: a churned fleet of 100k tenants shares the "other"
  // series instead of growing the registry per session.
  const obs::Labels l = obs->metrics.FoldTenant(
      obs::Labels::TenantSsd(static_cast<int32_t>(tenant_), pipeline_));
  obs::MetricsRegistry& reg = obs->metrics;
  obs_ = std::make_unique<Observed>(Observed{
      obs, &reg.GetCounter(schema::kInitiatorSubmitted, l),
      &reg.GetCounter(schema::kClientCompleted, l),
      &reg.GetCounter(schema::kClientCompletedBytes, l),
      &reg.GetCounter(schema::kClientFailed, l),
      &reg.GetCounter(schema::kInitiatorRetries, l),
      &reg.GetCounter(schema::kInitiatorTimeouts, l),
      &reg.GetCounter(schema::kInitiatorLateCompletions, l)});
}

}  // namespace gimbal::fabric
