#include "fault/fault.h"

#include <algorithm>
#include <cassert>

namespace gimbal::fault {

namespace {
// Per-SSD stream seeds: golden-ratio stride off the injector seed (Rng
// SplitMixes whatever it is given, so nearby seeds still decorrelate). The
// link stream uses the plain seed, which no SSD stream can collide with.
uint64_t SsdSeed(uint64_t seed, int ssd) {
  return seed + 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(ssd + 1);
}
}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, int num_ssds, uint64_t seed)
    : sim_(sim), seed_(seed), link_rng_(seed),
      ssds_(static_cast<size_t>(num_ssds)) {
  for (int i = 0; i < num_ssds; ++i) {
    ssds_[i].rng = Rng(SsdSeed(seed_, i));
  }
}

void FaultInjector::AttachObservability(obs::Observability* obs) {
  obs_ = obs;
  m_link_dropped_ = nullptr;
  m_link_delayed_ = nullptr;
  namespace schema = obs::schema;
  for (int i = 0; i < num_ssds(); ++i) {
    SsdState& s = ssds_[i];
    s.machine.AttachObservability(obs_, i);
    s.m_media_errors = nullptr;
    s.m_device_failed = nullptr;
    s.m_stalled = nullptr;
    if (obs_) {
      s.m_media_errors = &obs_->metrics.GetCounter(schema::kFaultMediaErrors);
      s.m_device_failed =
          &obs_->metrics.GetCounter(schema::kFaultDeviceFailedIos);
      s.m_stalled = &obs_->metrics.GetCounter(schema::kFaultStalledIos);
    }
  }
  if (!obs_) return;
  obs::MetricsRegistry& reg = obs_->metrics;
  m_link_dropped_ = &reg.GetCounter(schema::kFaultLinkDropped);
  m_link_delayed_ = &reg.GetCounter(schema::kFaultLinkDelayed);
}

void FaultInjector::Inject(const char* kind, int ssd, double arg) {
  if (!obs_) return;
  obs_->tracer.Instant(sim_.now(), obs::schema::kEvFaultInject,
                       ssd >= 0 ? obs::Labels::Ssd(ssd) : obs::Labels{},
                       {{kind, arg}});
}

bool FaultInjector::Degrading(int ssd, Tick now) const {
  for (const MediaErrorBurst& o : plan_.media_errors) {
    if (o.ssd == ssd && InWindow(now, o.start, o.end)) return true;
  }
  for (const StallWindow& o : plan_.stalls) {
    if (o.ssd == ssd && InWindow(now, o.start, o.end)) return true;
  }
  return false;
}

bool FaultInjector::SetHealth(int ssd, SsdHealth to) {
  SsdState& s = ssds_[ssd];
  if (!s.machine.Set(to, sim_.now())) return false;
  for (auto& fn : s.observers) fn(to);
  return true;
}

void FaultInjector::Schedule(const FaultPlan& plan) {
  plan_ = plan;
  // Whole-node failures expand into one SsdFailure per SSD on the node,
  // all at the node's fail/recover ticks — the scheduling loop below then
  // treats them exactly like planned per-SSD failures, so every SSD on
  // the node fails (and heals) atomically. The rack fabric's message
  // blackout is scheduled separately by the testbed
  // (Network::AddNodeOutage). A node-level trace event marks each edge.
  for (const NodeFailure& nf : plan_.node_failures) {
    for (int s = 0; s < num_ssds(); ++s) {
      if (NodeOf(s) == nf.node) {
        plan_.failures.push_back(SsdFailure{s, nf.fail_at, nf.recover_at});
      }
    }
    scheduled_.push_back(sim_.At(nf.fail_at, [this, nf]() {
      Inject("node_fail", -1, static_cast<double>(nf.node));
    }));
    if (nf.recover_at > 0) {
      scheduled_.push_back(sim_.At(nf.recover_at, [this, nf]() {
        Inject("node_recover", -1, static_cast<double>(nf.node));
      }));
    }
  }
  for (const StallWindow& w : plan_.stalls) {
    assert(w.ssd >= 0 && w.ssd < num_ssds());
    scheduled_.push_back(sim_.At(w.start, [this, w]() {
      Inject("stall_ns", w.ssd, static_cast<double>(w.extra_latency));
      SetHealth(w.ssd, SsdHealth::kDegraded);
    }));
    scheduled_.push_back(sim_.At(w.end, [this, w]() {
      // Only un-degrade if no other degrading window is still active and
      // the device has not failed meanwhile (Set validates transitions).
      if (!Degrading(w.ssd, sim_.now()) &&
          (GIMBAL_MUT(kHealthSkip) ||
           health(w.ssd) == SsdHealth::kDegraded)) {
        SetHealth(w.ssd, SsdHealth::kHealthy);
      }
    }));
  }
  for (const MediaErrorBurst& b : plan_.media_errors) {
    assert(b.ssd >= 0 && b.ssd < num_ssds());
    scheduled_.push_back(sim_.At(b.start, [this, b]() {
      Inject("media_error_p", b.ssd, b.probability);
      SetHealth(b.ssd, SsdHealth::kDegraded);
    }));
    scheduled_.push_back(sim_.At(b.end, [this, b]() {
      if (!Degrading(b.ssd, sim_.now()) &&
          (GIMBAL_MUT(kHealthSkip) ||
           health(b.ssd) == SsdHealth::kDegraded)) {
        SetHealth(b.ssd, SsdHealth::kHealthy);
      }
    }));
  }
  for (const SsdFailure& f : plan_.failures) {
    assert(f.ssd >= 0 && f.ssd < num_ssds());
    scheduled_.push_back(sim_.At(f.fail_at, [this, f]() {
      Inject("fail", f.ssd, 1.0);
      // A failure during probation kills the pending heal; the re-failed
      // device must wait for its own recovery, not inherit the old one's.
      ssds_[f.ssd].probation.Cancel();
      SetHealth(f.ssd, SsdHealth::kFailed);
    }));
    if (f.recover_at > 0) {
      assert(f.recover_at > f.fail_at);
      scheduled_.push_back(sim_.At(f.recover_at, [this, f]() {
        Inject("recover", f.ssd, 1.0);
        if (!SetHealth(f.ssd, SsdHealth::kRecovering)) return;
        ssds_[f.ssd].probation =
            sim_.After(plan_.recovery_probation, [this, f]() {
              SetHealth(f.ssd, SsdHealth::kHealthy);
            });
      }));
    }
  }
  for (const LinkFlap& l : plan_.link_flaps) {
    scheduled_.push_back(sim_.At(l.start, [this, l]() {
      Inject("link_flap_p", -1, l.drop_probability);
    }));
  }
}

void FaultInjector::ScheduleTenantCrash(Tick at, TenantId tenant,
                                        std::function<void()> crash_fn) {
  scheduled_.push_back(
      sim_.At(at, [this, tenant, crash_fn = std::move(crash_fn)]() {
        ++crashes_;
        if (obs_) {
          obs_->tracer.Instant(
              sim_.now(), obs::schema::kEvTenantCrash,
              obs::Labels::TenantSsd(static_cast<int32_t>(tenant), -1));
        }
        crash_fn();
      }));
}

void FaultInjector::CancelScheduled() {
  for (sim::TimerHandle& h : scheduled_) h.Cancel();
  scheduled_.clear();
  for (SsdState& s : ssds_) s.probation.Cancel();
}

size_t FaultInjector::pending_scheduled() const {
  size_t n = 0;
  for (const sim::TimerHandle& h : scheduled_) n += h.active() ? 1 : 0;
  for (const SsdState& s : ssds_) n += s.probation.active() ? 1 : 0;
  return n;
}

FaultInjector::IoFault FaultInjector::OnDeviceSubmit(int ssd, IoType /*type*/,
                                                     Tick now) {
  IoFault out;
  SsdState& s = ssds_[ssd];
  if (s.machine.health() == SsdHealth::kFailed) {
    out.force_status = IoStatus::kDeviceFailed;
    out.fault_latency = Microseconds(5);  // fail-fast controller response
    ++s.device_failed_ios;
    if (s.m_device_failed) s.m_device_failed->Add(1);
    return out;
  }
  // Transient media errors: use the strongest active burst. The SSD's
  // private RNG is drawn only while a burst is active, keeping the stream
  // deterministic.
  double p = 0;
  Tick err_latency = 0;
  for (const MediaErrorBurst& b : plan_.media_errors) {
    if (b.ssd == ssd && InWindow(now, b.start, b.end) && b.probability > p) {
      p = b.probability;
      err_latency = b.error_latency;
    }
  }
  if (p > 0 && s.rng.NextDouble() < p) {
    out.force_status = IoStatus::kMediaError;
    out.fault_latency = err_latency;
    ++s.media_errors;
    if (s.m_media_errors) s.m_media_errors->Add(1);
    return out;
  }
  for (const StallWindow& w : plan_.stalls) {
    if (w.ssd == ssd && InWindow(now, w.start, w.end)) {
      out.extra_latency = std::max(out.extra_latency, w.extra_latency);
    }
  }
  if (out.extra_latency > 0) {
    ++s.stalled_ios;
    if (s.m_stalled) s.m_stalled->Add(1);
  }
  return out;
}

FaultInjector::LinkFault FaultInjector::OnLinkMessage(Tick now) {
  LinkFault out;
  double p = 0;
  for (const LinkFlap& l : plan_.link_flaps) {
    if (!InWindow(now, l.start, l.end)) continue;
    p = std::max(p, l.drop_probability);
    out.extra_delay = std::max(out.extra_delay, l.extra_delay);
  }
  if (p > 0 && link_rng_.NextDouble() < p) {
    out.drop = true;
    out.extra_delay = 0;
    ++link_dropped_;
    if (m_link_dropped_) m_link_dropped_->Add(1);
    return out;
  }
  if (out.extra_delay > 0) {
    ++link_delayed_;
    if (m_link_delayed_) m_link_delayed_->Add(1);
  }
  return out;
}

FaultInjector::FaultCounters FaultInjector::counters() const {
  FaultCounters total;
  for (const SsdState& s : ssds_) {
    total.media_errors += s.media_errors;
    total.device_failed_ios += s.device_failed_ios;
    total.stalled_ios += s.stalled_ios;
  }
  total.link_dropped = link_dropped_;
  total.link_delayed = link_delayed_;
  total.crashes = crashes_;
  return total;
}

}  // namespace gimbal::fault
