#include "workload/fleet.h"

#include <cassert>

namespace gimbal::workload {
namespace {

// Graveyard sweep cadence. Retired sessions usually drain within a few
// round trips; 1ms keeps the parting population tiny without adding a
// measurable event-rate tax.
constexpr Tick kSweepPeriod = Milliseconds(1);

}  // namespace

OpenLoopFleet::OpenLoopFleet(Testbed& bed, FleetSpec spec)
    : bed_(bed),
      spec_(spec),
      rng_(spec.seed ^ 0xf1ee7ULL),
      slo_(spec.slo),
      seats_(spec.sessions) {
  assert(spec_.sessions > 0);
  sink_.sample = [this](TenantId t, const IoCompletion& cpl, Tick e2e) {
    if (cpl.ok()) {
      slo_.Record(t, cpl.type == IoType::kWrite, e2e, bed_.sim().now());
    }
  };
}

OpenLoopFleet::~OpenLoopFleet() {
  // Cancel every timer that captures this fleet or its workers so tearing
  // down mid-run leaves nothing dangling in the event queue. (The stagger
  // timers guard on running_ but are not individually cancellable; the
  // documented contract is to destroy the fleet only once the sim is idle
  // or will not run again — the Testbed-after-fleet declaration order
  // gives exactly that.)
  running_ = false;
  sweep_timer_.Cancel();
  for (auto& s : seats_) {
    if (s == nullptr) continue;
    s->lifetime.Cancel();
    s->worker->Stop();
  }
  for (auto& s : graveyard_) s->worker->Stop();
}

void OpenLoopFleet::Start() {
  if (started_) return;
  started_ = true;
  running_ = true;
  // Stagger bring-up uniformly over the rampup span. Seat k's connect
  // time is deterministic; the RNG draws for its rate and lifetime happen
  // inside the timer, in event order.
  const uint64_t n = spec_.sessions;
  for (uint64_t k = 0; k < n; ++k) {
    const Tick at = spec_.rampup > 0
                        ? static_cast<Tick>((static_cast<unsigned __int128>(
                                                 spec_.rampup) *
                                             k) /
                                            n) +
                              1
                        : 1;
    const uint32_t seat = static_cast<uint32_t>(k);
    bed_.sim().After(at, [this, seat]() {
      if (running_) StartSession(seat);
    });
  }
}

void OpenLoopFleet::StartSession(uint32_t seat) {
  assert(seats_[seat] == nullptr);
  const TenantId tenant = bed_.AllocateTenantId();
  const int ssd =
      static_cast<int>(seat % static_cast<uint32_t>(bed_.config().num_ssds));
  auto s = std::make_unique<Session>();
  s->init =
      bed_.MakeInitiator(ssd, tenant, fabric::ConnectMode::kCapsule);

  OpenLoopSpec ws;
  // Rank = seat: the heavy hitters of a Zipf/Pareto plan live in the low
  // seats, and a replacement session inherits its seat's rank so the
  // offered-load mix is stationary under churn.
  ws.offered_iops =
      SessionRate(spec_.rates, seat, spec_.sessions, rng_.NextDouble());
  ws.read_ratio = spec_.read_ratio;
  ws.io_bytes = spec_.io_bytes;
  ws.max_outstanding = spec_.max_outstanding;
  ws.region_bytes = bed_.device(ssd).capacity_bytes();
  ws.seed = spec_.seed ^ (static_cast<uint64_t>(tenant) * 0x9e3779b97f4a7c15ULL);
  ws.arrival = spec_.arrival;
  s->worker =
      std::make_unique<OpenLoopWorker>(bed_.sim(), *s->init, ws, &sink_);
  s->worker->Start();

  if (spec_.session_lifetime_mean > 0) {
    const Tick life =
        static_cast<Tick>(rng_.NextExponential(
            static_cast<double>(spec_.session_lifetime_mean))) +
        1;
    s->lifetime = bed_.sim().After(life, [this, seat]() {
      EndSession(seat, /*replace=*/true);
    });
  }
  seats_[seat] = std::move(s);
  ++active_;
  ++connects_;
}

void OpenLoopFleet::EndSession(uint32_t seat, bool replace) {
  std::unique_ptr<Session> s = std::move(seats_[seat]);
  if (s == nullptr) return;
  --active_;
  ++disconnects_;
  s->lifetime.Cancel();
  Retire(std::move(s));
  if (replace && running_) StartSession(seat);
}

void OpenLoopFleet::Retire(std::unique_ptr<Session> s) {
  s->worker->Stop();
  slo_.OnDisconnect(s->init->tenant());
  // Shutdown empties the local queue at once, but Initiator::FailLocally
  // defers each aborted IO's callback with After(0), so neither those
  // aborts nor the issued in-flight tail the graveyard waits for reach
  // the fleet's stats: the worker's stats are detached here. The tail
  // still feeds the SLO tracker, and re-creates the tenant's SLO slot
  // after OnDisconnect, which nothing frees.
  s->init->Shutdown();
  s->worker->DetachStats();
  graveyard_.push_back(std::move(s));
  ArmSweep();
}

void OpenLoopFleet::ArmSweep() {
  if (sweep_timer_.active() || graveyard_.empty()) return;
  sweep_timer_ = bed_.sim().After(kSweepPeriod, [this]() {
    SweepGraveyard();
    ArmSweep();
  });
}

size_t OpenLoopFleet::SweepGraveyard() {
  // A retired initiator is reclaimable once nothing can call back into
  // it: no queued IOs (Shutdown failed them synchronously), no issued IOs
  // still owed a completion by the fabric, and no control capsules still
  // crossing it (their delivery callbacks capture the initiator — under a
  // churn storm the capsule backlog alone can exceed a sweep period).
  // Fresh tenant ids mean a late completion can never be misrouted to a
  // successor session — the target drops it as orphaned instead.
  size_t kept = 0;
  for (auto& s : graveyard_) {
    if (s->init->inflight() != 0 || s->init->queued() != 0 ||
        s->init->control_inflight() != 0) {
      graveyard_[kept++] = std::move(s);
    }
  }
  graveyard_.resize(kept);
  return kept;
}

void OpenLoopFleet::Stop() {
  running_ = false;
  for (uint32_t seat = 0; seat < seats_.size(); ++seat) {
    EndSession(seat, /*replace=*/false);
  }
}

void OpenLoopFleet::ExportSlo(obs::MetricsRegistry& reg) {
  slo_.FinalizeWindows();
  slo_.Export(reg);
}

OpenLoopFleet::Totals OpenLoopFleet::TotalStats() const {
  return {sink_.stats, sink_.dropped};
}

}  // namespace gimbal::workload
