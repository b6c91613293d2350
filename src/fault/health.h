// Per-SSD health state machine (see docs/FAULTS.md).
//
// Tracks what the fault layer knows about one device:
//
//   healthy ──stall/media burst──▶ degraded ──window ends──▶ healthy
//      │                              │
//      └────────── fail ──────────────┴──▶ failed ──recover──▶ recovering
//                                                                  │
//                              probation elapses ──────────────────┘──▶ healthy
//
// The GimbalSwitch consults the current state so a failed SSD drains and
// fails queued IOs fast instead of letting them rot behind a dead device,
// and so recovery resets the congestion-control EWMAs (the post-failure
// device bears no relation to the pre-failure latency profile).
#pragma once

#include "check/invariants.h"
#include "common/time.h"
#include "core/params.h"  // GIMBAL_MUT
#include "obs/obs.h"
#include "obs/schema.h"
#include "sim/simulator.h"

namespace gimbal::fault {

enum class SsdHealth : uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kFailed = 2,
  kRecovering = 3,
};

constexpr const char* ToString(SsdHealth h) {
  switch (h) {
    case SsdHealth::kHealthy: return "healthy";
    case SsdHealth::kDegraded: return "degraded";
    case SsdHealth::kFailed: return "failed";
    case SsdHealth::kRecovering: return "recovering";
  }
  return "?";
}

// Returns true if `from -> to` is a legal transition of the state machine
// above (self-transitions are legal no-ops).
constexpr bool ValidTransition(SsdHealth from, SsdHealth to) {
  if (from == to) return true;
  switch (from) {
    case SsdHealth::kHealthy:
      return to == SsdHealth::kDegraded || to == SsdHealth::kFailed;
    case SsdHealth::kDegraded:
      return to == SsdHealth::kHealthy || to == SsdHealth::kFailed;
    case SsdHealth::kFailed:
      return to == SsdHealth::kRecovering;
    case SsdHealth::kRecovering:
      return to == SsdHealth::kHealthy || to == SsdHealth::kFailed;
  }
  return false;
}

// One SSD's health, with observability and transition validation. Invalid
// transitions are ignored (e.g. a stall window ending after the device
// already failed must not resurrect it).
class SsdHealthMachine {
 public:
  SsdHealth health() const { return health_; }

  // Attempt the transition; returns true if the state actually changed.
  bool Set(SsdHealth to, Tick now) {
    if (to == health_) return false;
    if (!GIMBAL_MUT(kHealthSkip) && !ValidTransition(health_, to)) {
      return false;
    }
    const SsdHealth from = health_;
    health_ = to;
    if (chk_) {
      chk_->OnHealthTransition(ssd_index_, static_cast<int>(from),
                               static_cast<int>(to));
    }
    if (obs_) {
      m_health_->Set(static_cast<double>(static_cast<int>(to)));
      obs_->tracer.Instant(now, obs::schema::kEvFaultHealth,
                           obs::Labels::Ssd(ssd_index_),
                           {{"from", static_cast<double>(static_cast<int>(from))},
                            {"to", static_cast<double>(static_cast<int>(to))}});
    }
    return true;
  }

  // Attach the ssd.health gauge and fault.health trace events, and the
  // checker, which re-validates every applied transition against its
  // independent legality table (docs/TESTING.md); `sinks.label` is the ssd
  // index.
  void Attach(const obs::Sinks& sinks) {
    obs_ = sinks.obs;
    chk_ = sinks.chk;
    ssd_index_ = sinks.label;
    if (!obs_) return;
    m_health_ = &obs_->metrics.GetGauge(obs::schema::kSsdHealth,
                                        obs::Labels::Ssd(ssd_index_));
    m_health_->Set(static_cast<double>(static_cast<int>(health_)));
  }

 private:
  SsdHealth health_ = SsdHealth::kHealthy;
  obs::Observability* obs_ = nullptr;
  check::InvariantChecker* chk_ = nullptr;
  int ssd_index_ = -1;
  obs::Gauge* m_health_ = nullptr;
};

}  // namespace gimbal::fault
