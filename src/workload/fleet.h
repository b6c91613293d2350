// Tenant-scale open-loop traffic engine.
//
// Drives a large population of short-lived open-loop sessions — up to and
// beyond 100k concurrently — through a Testbed. Each live session is one
// seat: a fresh tenant id, a caller-owned Initiator (capsule connect, so
// mid-run registration is FIFO-ordered with the seat's commands), and an
// OpenLoopWorker whose offered rate comes from a heavy-tailed RatePlan (a
// handful of seats carry most of the load) modulated by a shared
// ArrivalSpec (burst storms, diurnal swing).
//
// Churn: with session_lifetime_mean > 0 every session lives an
// exponential lifetime, disconnects gracefully, and its seat immediately
// starts a replacement under a brand-new tenant id. A retired session
// moves to the graveyard until its last completion drains (the fabric may
// still deliver completions to its sink), then its memory is reclaimed by
// the periodic sweep. The fleet, the target's session table, the DRR
// arena and the invariant checker's ledgers are O(seats + draining); the
// one exception is the SloTracker slot a retired session's in-flight tail
// re-creates after OnDisconnect, which nothing frees (docs/WORKLOADS.md).
//
// Every session's completions feed the SloTracker (obs/slo.h); call
// Stop(), run the sim to idle, then ExportSlo() into a registry.
//
// Memory: a seat is its Session, Initiator and OpenLoopWorker, plus the
// initiator's in-flight window once it has IO. Every worker records into
// one fleet-wide OpenLoopSink, which also holds the SLO sample hook, so a
// seat carries no stats of its own and TotalStats() is a read of the sink
// rather than a merge over seats (docs/WORKLOADS.md has the byte counts).
//
// All fleet activity — stagger timers, lifetime timers, RNG draws, the
// sweep — runs as events on the testbed's simulator and never reads
// target-side state.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "obs/slo.h"
#include "workload/arrivals.h"
#include "workload/openloop.h"
#include "workload/runner.h"

namespace gimbal::workload {

struct FleetSpec {
  uint64_t sessions = 1000;     // concurrent seats
  RatePlan rates;               // per-session offered rate
  ArrivalSpec arrival;          // shared modulation (burst/diurnal)
  double read_ratio = 1.0;
  uint32_t io_bytes = 4096;
  uint32_t max_outstanding = 64;  // per session; beyond it arrivals shed
  // Exponential mean session lifetime; 0 = sessions live forever.
  Tick session_lifetime_mean = 0;
  // Bring-up is staggered uniformly over this span (a 100k-timer stampede
  // at t=0 is legal but pointless).
  Tick rampup = Milliseconds(1);
  uint64_t seed = 1;
  obs::SloSpec slo;             // latency objectives; default disabled
};

class OpenLoopFleet {
 public:
  // Sessions round-robin over the testbed's pipelines. The fleet must be
  // destroyed before the testbed (declare it after).
  OpenLoopFleet(Testbed& bed, FleetSpec spec);
  ~OpenLoopFleet();

  // Schedule the staggered bring-up; idempotent.
  void Start();

  // Retire every session (graceful disconnect, no replacements). Run the
  // sim to idle afterwards, then the graveyard drains to empty.
  void Stop();

  obs::SloTracker& slo() { return slo_; }
  // FinalizeWindows + Export into `reg` (call once, after the drain).
  void ExportSlo(obs::MetricsRegistry& reg);

  uint64_t connects() const { return connects_; }
  uint64_t disconnects() const { return disconnects_; }
  size_t active_sessions() const { return active_; }

  // Cumulative stats over every session, live and retired (a retired
  // session's in-flight tail is not counted). Shed arrivals (worker hit
  // max_outstanding) are in `dropped`.
  struct Totals {
    WorkerStats stats;
    uint64_t dropped = 0;
  };
  Totals TotalStats() const;

  // Reclaim graveyard sessions whose initiators have fully drained;
  // returns the number still draining. Runs automatically on a timer
  // while anything is parting; exposed for tests to assert emptiness.
  size_t SweepGraveyard();

 private:
  struct Session {
    std::unique_ptr<fabric::Initiator> init;
    std::unique_ptr<OpenLoopWorker> worker;
    sim::TimerHandle lifetime;
  };

  void StartSession(uint32_t seat);
  void EndSession(uint32_t seat, bool replace);
  void Retire(std::unique_ptr<Session> s);
  void ArmSweep();

  Testbed& bed_;
  FleetSpec spec_;
  Rng rng_;
  obs::SloTracker slo_;
  std::vector<std::unique_ptr<Session>> seats_;
  std::vector<std::unique_ptr<Session>> graveyard_;
  sim::TimerHandle sweep_timer_;
  // Every seat's worker records here until its session retires.
  OpenLoopSink sink_;
  uint64_t connects_ = 0;
  uint64_t disconnects_ = 0;
  size_t active_ = 0;
  bool started_ = false;
  bool running_ = false;
};

}  // namespace gimbal::workload
