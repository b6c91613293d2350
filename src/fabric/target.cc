#include "fabric/target.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "obs/schema.h"

namespace gimbal::fabric {

Target::Target(sim::Simulator& sim, Network& net, TargetConfig config)
    : sim_(sim), net_(net), config_(config) {
  cores_.reserve(config_.cores);
  for (int i = 0; i < config_.cores; ++i) {
    cores_.push_back(std::make_unique<sim::FifoResource>(sim_));
  }
}

int Target::AddPipeline(std::unique_ptr<core::IoPolicy> policy) {
  auto p = std::make_unique<Pipeline>();
  p->policy = std::move(policy);
  // Shared-nothing: pipelines spread round-robin over the cores (§4.1:
  // one A72 core fully drives one PCIe Gen3 SSD).
  p->core = static_cast<int>(pipelines_.size()) % config_.cores;
  Pipeline* raw = p.get();
  p->policy->set_completion_fn(
      [this, raw](const IoRequest& req, const IoCompletion& cpl) {
        FinishCompletion(*raw, req, cpl);
      });
  // Global pipeline id: this target's base plus the local slot, so fabric
  // routing and the `ssd` metric label stay rack-wide unique.
  const int id = base_ + static_cast<int>(pipelines_.size());
  p->id = id;
  p->policy->AttachObservability(obs_, id);
  p->policy->AttachChecker(chk_, id);
  pipelines_.push_back(std::move(p));
  return id;
}

void Target::AttachObservability(obs::Observability* obs) {
  obs_ = obs;
  for (size_t i = 0; i < pipelines_.size(); ++i) {
    Pipeline& p = *pipelines_[i];
    p.policy->AttachObservability(obs_, p.id);
    // Drop cached admit counter handles; they re-resolve against the new
    // registry (or run label) on the next capsule.
    for (uint32_t slot : p.sessions.live()) {
      p.sessions[slot].admit_ios = nullptr;
      p.sessions[slot].admit_bytes = nullptr;
    }
  }
}

void Target::AttachChecker(check::InvariantChecker* chk) {
  chk_ = chk;
  for (const auto& p : pipelines_) {
    p->policy->AttachChecker(chk_, p->id);
  }
}

Target::Session& Target::SessionFor(Pipeline& p, TenantId tenant) {
  uint32_t slot = p.session_index.Find(tenant);
  if (slot == common::IdIndexMap::kNotFound) {
    slot = p.sessions.Allocate(tenant);
    p.session_index.Put(tenant, slot);
  }
  return p.sessions[slot];
}

Target::Session* Target::FindSession(Pipeline& p, TenantId tenant) {
  const uint32_t slot = p.session_index.Find(tenant);
  return slot == common::IdIndexMap::kNotFound ? nullptr : &p.sessions[slot];
}

void Target::FreeSessionIfDrained(Pipeline& p, TenantId tenant) {
  const uint32_t slot = p.session_index.Find(tenant);
  if (slot == common::IdIndexMap::kNotFound) return;
  Session& s = p.sessions[slot];
  if (s.outstanding > 0) return;
  if (!s.parting && s.sink != nullptr) return;
  Untrack(p, s);
  p.session_index.Erase(tenant);
  p.sessions.Free(slot);
  if (chk_) chk_->OnTargetSessionClosed(tenant, p.id);
}

void Target::Connect(int pipeline, TenantId tenant, CompletionSink* sink) {
  Pipeline& p = Pipe(pipeline);
  Session& s = SessionFor(p, tenant);
  // A reconnect simply replaces the sink; an in-flight teardown is
  // cancelled (the new connection adopts any still-draining IOs).
  s.sink = sink;
  s.parting = false;
}

void Target::OnConnectCapsule(int pipeline, TenantId tenant,
                              CompletionSink* sink) {
  Pipeline& p = Pipe(pipeline);
  CoreOf(p).Acquire(config_.submit_cost, [this, &p, tenant, sink]() {
    Session& s = SessionFor(p, tenant);
    s.sink = sink;
    s.parting = false;
  });
}

void Target::OnCommandCapsule(int pipeline, IoRequest req) {
  Pipeline& p = Pipe(pipeline);
  ++p.stats.ios;
  p.stats.bytes += req.length;
  Session& s = SessionFor(p, req.tenant);
  ++s.outstanding;
  if (obs::Observability* o = obs_) {
    const obs::Labels l =
        obs::Labels::TenantSsd(static_cast<int32_t>(req.tenant), pipeline);
    if (!s.admit_ios) {
      // Resolved once per session; a run-label change invalidates the
      // cache via Testbed re-attach. The metric series uses the folded
      // tenant label so a 100k-tenant churn cannot explode the registry.
      const obs::Labels ml = o->metrics.FoldTenant(l);
      s.admit_ios = &o->metrics.GetCounter(obs::schema::kTargetAdmitted, ml);
      s.admit_bytes =
          &o->metrics.GetCounter(obs::schema::kTargetAdmittedBytes, ml);
    }
    s.admit_ios->Add(1);
    s.admit_bytes->Add(req.length);
    o->tracer.Instant(sim_.now(), obs::schema::kEvAdmit, l,
                      {{"bytes", static_cast<double>(req.length)},
                       {"write", req.type == IoType::kWrite ? 1.0 : 0.0}});
  }
  // Target-side latency is measured from capsule arrival to the completion
  // capsule being handed to the NIC (the (b)-(e) window of §2.1).
  req.target_arrival = sim_.now();
  TouchSession(pipeline, req.tenant);
  // Step (b): submission processing on the pipeline's core.
  CoreOf(p).Acquire(
      config_.submit_cost + config_.added_cost, [this, &p, req]() mutable {
        if (req.type == IoType::kWrite && req.length > kInlineWriteBytes) {
          // RDMA_READ of the client payload: control message out, data in,
          // then staging through node memory.
          net_.Send(Direction::kTargetToClient, p.id, kRdmaControlBytes,
                    [this, &p, req]() mutable {
                      net_.Send(Direction::kClientToTarget, p.id, req.length,
                                [this, &p, req]() mutable {
                                  sim_.After(StagingDelay(req.length),
                                             [this, &p, req]() {
                                               DeliverToPolicy(p, req);
                                             });
                                });
                    });
        } else if (req.type == IoType::kWrite) {
          // Inlined payload arrived with the capsule: just stage it.
          sim_.After(StagingDelay(req.length),
                     [this, &p, req]() { DeliverToPolicy(p, req); });
        } else {
          DeliverToPolicy(p, req);
        }
      });
}

// Policy ingress. The checker's target-admit ledger counts here — after
// the RDMA_READ for large writes — because a link flap can still eat the
// payload fetch between capsule arrival and this point, and a command the
// policy never saw cannot be expected to terminate (the client's retry
// covers it instead).
void Target::DeliverToPolicy(Pipeline& p, const IoRequest& req) {
  // A write's staging delay can let the tenant's disconnect overtake it:
  // the capsule arrived before the disconnect (FIFO), but by the time the
  // payload is staged the policy has already dropped the tenant. Handing
  // it over now would resurrect scheduler state nothing ever reaps — fail
  // it back to the client instead, through the normal completion path so
  // the session's outstanding count still drains.
  if (const Session* s = FindSession(p, req.tenant);
      s == nullptr || s->parting || s->sink == nullptr) {
    IoCompletion cpl;
    cpl.id = req.id;
    cpl.tenant = req.tenant;
    cpl.type = req.type;
    cpl.length = req.length;
    cpl.status = IoStatus::kAborted;
    FinishCompletion(p, req, cpl);
    return;
  }
  if (chk_) chk_->OnTargetAdmit(req.tenant, p.id);
  p.policy->OnRequest(req);
}

void Target::OnTrimCapsule(int pipeline, uint64_t offset, uint32_t length) {
  Pipeline& p = Pipe(pipeline);
  CoreOf(p).Acquire(config_.submit_cost, [&p, offset, length]() {
    p.policy->OnTrim(offset, length);
  });
}

void Target::OnDisconnectCapsule(int pipeline, TenantId tenant) {
  Pipeline& p = Pipe(pipeline);
  if (Session* s = FindSession(p, tenant)) {
    Untrack(p, *s);  // graceful exit: nothing left for the crash reaper
    s->parting = true;
  }
  CoreOf(p).Acquire(config_.submit_cost, [this, &p, tenant]() {
    // A whirlwind session can disconnect while its connect capsule is
    // still queued on the core: the arrival-time FindSession above saw
    // nothing to mark, and the sink registered only moments ago. The core
    // is FIFO, so re-marking here is ordered after the connect callback
    // and the slot cannot be left live with a dangling sink.
    if (Session* s = FindSession(p, tenant)) {
      Untrack(p, *s);
      s->parting = true;
    }
    p.policy->OnTenantDisconnect(tenant);
    // Queued IOs failed synchronously above but their completion capsules
    // are still queued on the core; the last FinishCompletion frees the
    // slot. An idle session has nothing outstanding and frees right here.
    FreeSessionIfDrained(p, tenant);
  });
}

void Target::OnKeepaliveCapsule(int pipeline, TenantId tenant) {
  TouchSession(pipeline, tenant);
}

void Target::TouchSession(int pipeline, TenantId tenant) {
  if (config_.session_timeout <= 0) return;
  Pipeline& p = Pipe(pipeline);
  Session& s = SessionFor(p, tenant);
  s.last_seen = sim_.now();
  if (!s.tracked) {
    s.tracked = true;
    ++p.tracked_sessions;
  }
  if (p.reaper_timer.active()) return;
  // Scan at half the timeout so a dead session is reaped at most 1.5x the
  // timeout after its last capsule. One timer per pipeline.
  p.reaper_timer = sim_.After(config_.session_timeout / 2,
                              [this, &p]() { ReapStaleSessions(p); });
}

void Target::ReapStaleSessions(Pipeline& p) {
  const Tick now = sim_.now();
  // Collect-then-reap, sorted: arena live order depends on churn history
  // and the reap order is client-visible (failed completions).
  std::vector<TenantId> stale;
  for (uint32_t slot : p.sessions.live()) {
    const Session& s = p.sessions[slot];
    if (s.tracked && now - s.last_seen >= config_.session_timeout) {
      stale.push_back(s.tenant);
    }
  }
  std::sort(stale.begin(), stale.end());
  for (TenantId tenant : stale) {
    Session* s = FindSession(p, tenant);
    Untrack(p, *s);
    s->parting = true;
    ++p.sessions_reaped;
    if (obs::Observability* o = obs_) {
      const obs::Labels l =
          obs::Labels::TenantSsd(static_cast<int32_t>(tenant), p.id);
      o->metrics
          .GetCounter(obs::schema::kTargetSessionsReaped,
                      o->metrics.FoldTenant(l))
          .Add(1);
      o->tracer.Instant(now, obs::schema::kEvTenantReap, l);
    }
    // Same teardown as a disconnect capsule: queued IOs fail back with
    // status=aborted, scheduler state is reclaimed once inflight drains.
    CoreOf(p).Acquire(config_.submit_cost, [this, &p, tenant]() {
      p.policy->OnTenantDisconnect(tenant);
      FreeSessionIfDrained(p, tenant);
    });
  }
  // Self-terminate once nothing is tracked so the event queue can drain.
  if (p.tracked_sessions > 0) {
    p.reaper_timer = sim_.After(config_.session_timeout / 2,
                                [this, &p]() { ReapStaleSessions(p); });
  }
}

int Target::session_count() const {
  int n = 0;
  for (const auto& p : pipelines_) n += p->tracked_sessions;
  return n;
}

uint64_t Target::sessions_reaped() const {
  uint64_t n = 0;
  for (const auto& p : pipelines_) n += p->sessions_reaped;
  return n;
}

size_t Target::live_sessions() const {
  size_t n = 0;
  for (const auto& p : pipelines_) n += p->sessions.size();
  return n;
}

uint64_t Target::completions_orphaned() const {
  uint64_t n = 0;
  for (const auto& p : pipelines_) n += p->completions_orphaned;
  return n;
}

Target::TargetStats Target::stats() const {
  TargetStats total;
  for (const auto& p : pipelines_) {
    total.ios += p->stats.ios;
    total.bytes += p->stats.bytes;
  }
  return total;
}

void Target::FinishCompletion(Pipeline& p, const IoRequest& req,
                              IoCompletion cpl) {
  // Step (e) prologue: completion processing on the core.
  CoreOf(p).Acquire(config_.complete_cost, [this, &p, req, cpl]() mutable {
    cpl.target_latency = sim_.now() - req.target_arrival;
    Session* s = FindSession(p, req.tenant);
    if (s != nullptr && s->outstanding > 0) --s->outstanding;
    if (s == nullptr || s->sink == nullptr) {
      // The session was already torn down (a command capsule delayed by a
      // link fault can slip past its tenant's disconnect). The client side
      // terminated this IO long ago; drop the completion, count it.
      ++p.completions_orphaned;
      if (s != nullptr) FreeSessionIfDrained(p, req.tenant);
      return;
    }
    CompletionSink* sink = s->sink;
    // May recycle the slot; `sink` is captured by value below and the
    // Initiator object outlives its fabric traffic (testbed-owned, or
    // graveyard-held by the fleet until drained).
    FreeSessionIfDrained(p, req.tenant);
    if (req.type == IoType::kRead && cpl.ok()) {
      // Step (d): stage data out of node memory, RDMA_WRITE it, then the
      // completion capsule follows on the same direction.
      sim_.After(StagingDelay(req.length), [this, &p, req, cpl, sink]() {
        net_.Send(Direction::kTargetToClient, p.id, req.length + kCapsuleBytes,
                  [cpl, sink]() { sink->OnFabricCompletion(cpl); });
      });
    } else {
      net_.Send(Direction::kTargetToClient, p.id, kCapsuleBytes,
                [cpl, sink]() { sink->OnFabricCompletion(cpl); });
    }
  });
}

}  // namespace gimbal::fabric
