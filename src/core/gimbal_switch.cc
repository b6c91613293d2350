#include "core/gimbal_switch.h"

namespace gimbal::core {

GimbalSwitch::GimbalSwitch(sim::Simulator& sim, ssd::BlockDevice& device,
                           GimbalParams params)
    : PolicyBase(sim, device),
      params_(params),
      write_cost_(params_),
      rate_(params_),
      scheduler_(params_, write_cost_) {}

void GimbalSwitch::Attach(const obs::Sinks& sinks) {
  PolicyBase::Attach(sinks);
  rate_.Attach(sinks, &sim_);
  write_cost_.Attach(sinks, &sim_);
  scheduler_.Attach(sinks);
  if (!obs_) return;
  namespace schema = obs::schema;
  const obs::Labels l = obs::Labels::Ssd(ssd_index_);
  obs::MetricsRegistry& reg = obs_->metrics;
  m_congestion_signals_ = &reg.GetCounter(schema::kCongestionSignals, l);
  m_overload_events_ = &reg.GetCounter(schema::kOverloadEvents, l);
  m_pacing_stalls_ = &reg.GetCounter(schema::kPacingStalls, l);
  m_credit_grants_ = &reg.GetCounter(schema::kCreditGrants, l);
  m_queue_depth_ = &reg.GetGauge(schema::kQueueDepth, l);
}

void GimbalSwitch::OnRequest(const IoRequest& req) {
  if (health_ == fault::SsdHealth::kFailed) {
    // Fail fast rather than queueing behind a dead device: the client
    // learns immediately and can redirect (docs/FAULTS.md).
    FailRequest(req, IoStatus::kDeviceFailed);
    return;
  }
  scheduler_.Enqueue(req);
  if (m_queue_depth_) {
    m_queue_depth_->Set(static_cast<double>(scheduler_.queued_total()));
  }
  Pump();
}

void GimbalSwitch::OnTenantDisconnect(TenantId tenant) {
  // Fail still-queued requests back to the client; the head-of-line
  // request (if it belongs to this tenant) was already charged to a slot
  // and will submit/complete normally, as will device-inflight IOs.
  if (obs_) {
    obs_->tracer.Instant(
        sim_.now(), obs::schema::kEvDisconnect,
        obs::Labels::TenantSsd(static_cast<int32_t>(tenant), ssd_index_));
  }
  for (const IoRequest& req : scheduler_.Disconnect(tenant)) {
    FailRequest(req, IoStatus::kAborted);
  }
  if (m_queue_depth_) {
    m_queue_depth_->Set(static_cast<double>(scheduler_.queued_total()));
  }
}

void GimbalSwitch::OnSsdHealthChange(fault::SsdHealth health) {
  health_ = health;
  if (health == fault::SsdHealth::kFailed) {
    // Fail-fast drain: everything queued behind the dead device returns to
    // the clients now instead of timing out one retry at a time. The
    // head-of-line request was already charged to a virtual slot, so the
    // slot is returned before failing it; device-inflight IOs come back as
    // status=device_failed through the normal completion path.
    if (head_) {
      scheduler_.OnCompletion(head_->req.tenant, head_->slot_id);
      FailRequest(head_->req, IoStatus::kDeviceFailed);
      head_.reset();
    }
    for (const IoRequest& req : scheduler_.DrainAll()) {
      FailRequest(req, IoStatus::kDeviceFailed);
    }
    if (m_queue_depth_) {
      m_queue_depth_->Set(static_cast<double>(scheduler_.queued_total()));
    }
  } else if (health == fault::SsdHealth::kRecovering) {
    // Forget fault-era latency history before fresh traffic arrives, so
    // the first post-recovery completions are not judged overloaded
    // against a stalled EWMA.
    rate_.ResetMonitors();
  }
}

void GimbalSwitch::MaybeUpdateWriteCost() {
  // §3.4: periodic ADMI update driven by the write EWMA latency.
  Tick now = sim_.now();
  if (now - last_cost_update_ < params_.write_cost_period) return;
  last_cost_update_ = now;
  write_cost_.PeriodicUpdate(rate_.monitor(IoType::kWrite).ewma_latency());
}

void GimbalSwitch::Pump() {
  // Algorithm 1, Submission(): drain the DRR while the buckets allow.
  while (true) {
    if (!head_) {
      head_ = scheduler_.Dequeue();
      if (!head_) return;  // nothing eligible (idle or all deferred)
    }
    const IoRequest& req = head_->req;
    if (!rate_.TrySubmit(req.type, req.length, sim_.now(),
                         write_cost_.cost())) {
      // Pacing stall: retry when enough tokens will have accrued. The
      // completion path also re-pumps, whichever comes first.
      if (m_pacing_stalls_) m_pacing_stalls_->Add(1);
      SchedulePoke(
          rate_.PacingDelay(req.type, req.length, write_cost_.cost()));
      return;
    }
    SubmitToDevice(req, head_->slot_id);
    head_.reset();
    if (m_queue_depth_) {
      m_queue_depth_->Set(static_cast<double>(scheduler_.queued_total()));
    }
  }
}

void GimbalSwitch::SchedulePoke(Tick delay) {
  if (poke_timer_.active()) return;
  if (delay < Microseconds(1)) delay = Microseconds(1);
  poke_timer_ = sim_.After(delay, [this]() { Pump(); });
}

void GimbalSwitch::OnDeviceCompletion(const IoRequest& req,
                                      const ssd::DeviceCompletion& dc,
                                      uint64_t slot_id) {
  // Algorithm 1, Completion(): latency feedback -> congestion state ->
  // target rate adjustment. Faulted completions are excluded — a media
  // error's response time says nothing about queueing delay, and letting
  // it poison the EWMAs would throttle the healthy tenants sharing the SSD
  // (docs/FAULTS.md).
  if (dc.ok()) {
    CongestionState state =
        rate_.OnCompletion(req.type, dc.latency(), req.length, sim_.now());
    if (state == CongestionState::kCongested) {
      ++congestion_signals_;
      if (m_congestion_signals_) m_congestion_signals_->Add(1);
    }
    if (state == CongestionState::kOverloaded && m_overload_events_) {
      m_overload_events_->Add(1);
    }
    MaybeUpdateWriteCost();
  }

  // Algorithm 2, Sched_Complete(): return the IO to its virtual slot.
  scheduler_.OnCompletion(req.tenant, slot_id);

  // §3.6: piggyback the tenant's refreshed credit on the completion.
  const uint32_t credit = scheduler_.CreditFor(req.tenant);
  if (chk_) chk_->OnCreditGrant(req.tenant, ssd_index_, credit);
  if (obs_) {
    m_credit_grants_->Add(1);
    const obs::Labels l =
        obs::Labels::TenantSsd(static_cast<int32_t>(req.tenant), ssd_index_);
    obs_->metrics.GetGauge(obs::schema::kCreditLast, l)
        .Set(static_cast<double>(credit));
    obs_->tracer.Instant(sim_.now(), obs::schema::kEvCreditGrant, l,
                         {{"credit", static_cast<double>(credit)}});
  }
  Deliver(req, dc, credit);

  // Self-clocking: every completion drives the next submission.
  Pump();
}

VirtualView GimbalSwitch::View(TenantId tenant) const {
  VirtualView v;
  const double rate = rate_.target_rate();
  const double wc = write_cost_.cost();
  v.read_headroom_bps = rate * wc / (1.0 + wc);
  v.write_headroom_bps = rate * 1.0 / (1.0 + wc);
  v.credits = scheduler_.CreditFor(tenant);
  // Report the worse of the two monitors' states.
  auto rs = rate_.monitor(IoType::kRead).state();
  auto ws = rate_.monitor(IoType::kWrite).state();
  v.state = static_cast<int>(rs) > static_cast<int>(ws) ? rs : ws;
  return v;
}

}  // namespace gimbal::core
