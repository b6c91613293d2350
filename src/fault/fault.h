// Seeded, deterministic fault injection for the disaggregated testbed
// (docs/FAULTS.md).
//
// A FaultPlan declares *when* faults happen on the simulated clock; the
// FaultInjector schedules them on the event queue and answers data-path
// queries from the components that must observe them:
//
//   * FaultyDevice (fault/faulty_device.h) asks OnDeviceSubmit before each
//     command — transient media errors, latency stalls and the failed
//     state are decided there,
//   * Network asks OnLinkMessage per fabric message — link flaps delay or
//     drop capsules,
//   * the GimbalSwitch subscribes to per-SSD health transitions so a
//     failing SSD drains fast and recovery resets the congestion EWMAs,
//   * tenant crashes run an arbitrary callback (the testbed points it at
//     Initiator::Crash) at the planned time.
//
// Determinism: device-path decisions for SSD i come from a per-SSD RNG
// stream (SplitMix-derived from the injector seed and i), and link-path
// decisions from a separate link stream; draws happen only inside active
// fault windows. Per-SSD streams make one SSD's fault sequence independent
// of how IOs from different SSDs interleave.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "fault/health.h"
#include "nvme/types.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace gimbal::fault {

// (a) Transient per-IO media errors: while active, each command on `ssd`
// fails with `probability` (status=media_error after `error_latency` — the
// drive burned its internal retries before giving up).
struct MediaErrorBurst {
  int ssd = 0;
  Tick start = 0;
  Tick end = 0;
  double probability = 0.01;
  Tick error_latency = Microseconds(500);
};

// (b) SSD latency stall (pathological GC spike): while active, every
// command on `ssd` completes `extra_latency` later than the device model
// says. Marks the SSD degraded for the duration.
struct StallWindow {
  int ssd = 0;
  Tick start = 0;
  Tick end = 0;
  Tick extra_latency = Milliseconds(2);
};

// (c) Full SSD failure: at `fail_at` the device goes dark — inflight and
// new IOs fail with status=device_failed. At `recover_at` (0 = never) it
// enters recovering and returns to healthy after `FaultPlan::
// recovery_probation`.
struct SsdFailure {
  int ssd = 0;
  Tick fail_at = 0;
  Tick recover_at = 0;
};

// (d) Fabric link flap: while active, every message on the shared link is
// dropped with `drop_probability`, and survivors are delayed by
// `extra_delay`. Dropped command/completion capsules surface as initiator
// timeouts.
struct LinkFlap {
  Tick start = 0;
  Tick end = 0;
  double drop_probability = 0.0;
  Tick extra_delay = 0;
};

// (f) Whole-node failure (docs/FAULTS.md, rack topology): at `fail_at`
// every SSD on `node` fails atomically (same tick, same semantics as an
// SsdFailure on each) and the rack fabric drops every message to or from
// the node; at `recover_at` (0 = never) the SSDs enter recovering and the
// fabric forwards again. Requires a testbed with nodes configured
// (ConfigureNodes) — on a single-node bed node 0 means "every SSD".
struct NodeFailure {
  int node = 0;
  Tick fail_at = 0;
  Tick recover_at = 0;
};

struct FaultPlan {
  std::vector<MediaErrorBurst> media_errors;
  std::vector<StallWindow> stalls;
  std::vector<SsdFailure> failures;
  std::vector<LinkFlap> link_flaps;
  std::vector<NodeFailure> node_failures;
  // recovering -> healthy delay after a failure's recover_at.
  Tick recovery_probation = Milliseconds(10);

  bool empty() const {
    return media_errors.empty() && stalls.empty() && failures.empty() &&
           link_flaps.empty() && node_failures.empty();
  }
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, int num_ssds, uint64_t seed = 1);

  // Rack topology: `node_of[ssd]` maps each SSD to its node, so a
  // NodeFailure can expand into that node's per-SSD failures. Call before
  // Schedule(). Without it every SSD counts as node 0.
  void ConfigureNodes(std::vector<int> node_of) {
    assert(!scheduled_ && "ConfigureNodes must precede Schedule");
    node_of_ = std::move(node_of);
  }
  int NodeOf(int ssd) const {
    return node_of_.empty() ? 0 : node_of_[static_cast<size_t>(ssd)];
  }

  // Schedule every fault in `plan` on the event queue. Call once, before
  // the experiment runs past the earliest fault time. NodeFailures expand
  // here into one SsdFailure per SSD on the node, all at identical ticks
  // (the atomic whole-node fail/recover).
  void Schedule(const FaultPlan& plan);

  // (e) Abrupt tenant crash: runs `crash_fn` (typically Initiator::Crash —
  // no disconnect capsule; the target's keepalive reaper cleans up) at
  // `at`, with a fault.inject trace event.
  void ScheduleTenantCrash(Tick at, TenantId tenant,
                           std::function<void()> crash_fn);

  // --- Data-path queries -----------------------------------------------------

  // Decision for one device command on `ssd` at simulated time `now`.
  struct IoFault {
    IoStatus force_status = IoStatus::kOk;  // non-ok: do not reach the device
    Tick fault_latency = 0;   // completion latency when force_status != ok
    Tick extra_latency = 0;   // stall add-on when force_status == ok
  };
  IoFault OnDeviceSubmit(int ssd, IoType type, Tick now);

  // Decision for one fabric message sent at `now`.
  struct LinkFault {
    bool drop = false;
    Tick extra_delay = 0;
  };
  LinkFault OnLinkMessage(Tick now);

  // --- Health ----------------------------------------------------------------
  SsdHealth health(int ssd) const { return ssds_[ssd].machine.health(); }
  int num_ssds() const { return static_cast<int>(ssds_.size()); }

  // Observe health transitions of `ssd` (the testbed subscribes each
  // pipeline's policy). Fired after the state changed.
  void Subscribe(int ssd, std::function<void(SsdHealth)> fn) {
    ssds_[ssd].observers.push_back(std::move(fn));
  }

  // Attach the fault.* counters (the per-IO device ones labelled with each
  // SSD's index) and trace events, and pass both sinks to every SSD's
  // health machine relabelled with its ssd index (the checker re-validates
  // each applied transition, docs/TESTING.md).
  void Attach(const obs::Sinks& sinks);

  struct FaultCounters {
    uint64_t media_errors = 0;
    uint64_t device_failed_ios = 0;
    uint64_t stalled_ios = 0;
    uint64_t link_dropped = 0;
    uint64_t link_delayed = 0;
    uint64_t crashes = 0;
  };
  // Aggregated across the per-SSD, link and crash counters.
  FaultCounters counters() const;

 private:
  struct SsdState {
    SsdHealthMachine machine;
    std::vector<std::function<void(SsdHealth)>> observers;
    // This SSD's private fault stream and counters (see header comment).
    Rng rng{0};
    uint64_t media_errors = 0;
    uint64_t device_failed_ios = 0;
    uint64_t stalled_ios = 0;
    // Their fault.* series, labelled with this SSD (null = not observed).
    obs::Counter* m_media_errors = nullptr;
    obs::Counter* m_device_failed = nullptr;
    obs::Counter* m_stalled = nullptr;
    // The recovering->healthy heal armed by a failure's recover_at;
    // cancelled if the device fails again during probation (the state
    // machine would reject the heal anyway — cancelling keeps the event
    // queue free of dead timers).
    sim::TimerHandle probation;
  };

  // Window membership is evaluated at query time against the stored plan
  // (plans are a handful of entries; a linear scan is cheaper than keeping
  // overlap counts consistent). Scheduled events handle only the health
  // transitions and trace emission.
  static bool InWindow(Tick now, Tick start, Tick end) {
    return now >= start && now < end;
  }

  // True while any stall/media-error window is active on `ssd`.
  bool Degrading(int ssd, Tick now) const;
  // Attempts the transition; returns true if the state changed (observers
  // fired).
  bool SetHealth(int ssd, SsdHealth to);
  void Inject(const char* kind, int ssd, double arg);

  sim::Simulator& sim_;
  uint64_t seed_;
  Rng link_rng_;
  std::vector<SsdState> ssds_;
  std::vector<int> node_of_;  // empty: single node
  FaultPlan plan_;
  // link_* are counted per fabric message, crashes_ per tenant crash.
  uint64_t link_dropped_ = 0;
  uint64_t link_delayed_ = 0;
  uint64_t crashes_ = 0;
  bool scheduled_ = false;  // Schedule() has run

  obs::Observability* obs_ = nullptr;

  // Link metric handles (null = not observed); the link is shared, so
  // these carry no ssd label.
  obs::Counter* m_link_dropped_ = nullptr;
  obs::Counter* m_link_delayed_ = nullptr;
};

}  // namespace gimbal::fault
