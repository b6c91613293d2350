// Two-level hierarchical IO scheduler (§3.5, Algorithm 2).
//
// Level 1: deficit round-robin across tenants, with deficits measured in
// cost-weighted bytes (a write IO costs write_cost x size). Tenants whose
// virtual-slot allotment is exhausted move to a *deferred* list: their
// deficit is zeroed and stops accumulating until a slot completes
// (Algorithm 2's active/deferred discipline), which also prevents
// deceptive idleness.
//
// Level 2: within a tenant, client-tagged priority queues are served by
// weighted round-robin (TenantState::Peek/Pop).
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "check/invariants.h"
#include "common/index_arena.h"
#include "core/params.h"
#include "core/virtual_slot.h"
#include "core/write_cost.h"
#include "nvme/types.h"
#include "obs/obs.h"

namespace gimbal::core {

class DrrScheduler {
 public:
  DrrScheduler(const GimbalParams& params, const WriteCostEstimator& cost)
      : params_(params), cost_(cost) {}

  // Ingress: queue a request on its tenant's priority queue.
  void Enqueue(const IoRequest& req);

  // A dequeued request plus the virtual slot it was charged to.
  struct Scheduled {
    IoRequest req;
    uint64_t slot_id = 0;
  };

  // Pick the next request per DRR; returns nullopt when no tenant is
  // eligible (all idle or deferred).
  std::optional<Scheduled> Dequeue();

  // Egress: an IO completed; credits its slot and possibly re-activates a
  // deferred tenant (Algorithm 2, Sched_Complete).
  void OnCompletion(TenantId tenant, uint64_t slot_id);

  // Tenant teardown: removes the tenant from scheduling and returns its
  // still-queued requests (the caller fails them back to the client).
  // IOs already at the device complete normally; the tenant's state is
  // reaped once the last one returns.
  std::vector<IoRequest> Disconnect(TenantId tenant);

  // Device failure (docs/FAULTS.md): drain every tenant's queues and
  // return all still-queued requests, sorted by (tenant, id) for a
  // deterministic fail order. Tenants stay registered — unlike
  // Disconnect() they reconnect to the SSD when it recovers — and slots
  // charged to device-inflight IOs are returned through OnCompletion as
  // their (failed) completions arrive.
  std::vector<IoRequest> DrainAll();

  size_t tenant_count() const { return tenants_.size(); }

  // The backing arena, exposed for churn tests: after a full
  // connect/disconnect/drain cycle tenant_count() must be zero AND every
  // arena slot must be back on the free-list (capacity == free_count), or
  // a slot leaked.
  const common::SlabArena<TenantState>& tenant_arena() const {
    return tenants_;
  }

  // Per-tenant slot allotment: the threshold divided evenly among busy
  // tenants, never below one (§3.5).
  uint32_t AllottedSlots() const {
    uint32_t busy = busy_tenants_ > 0 ? busy_tenants_ : 1;
    uint32_t share = params_.slots_threshold / busy;
    return share > 0 ? share : 1;
  }

  // Total credit granted to a tenant (§3.6): allotted slots x IO count of
  // its most recently completed slot.
  uint32_t CreditFor(TenantId tenant) const;

  TenantState& GetTenant(TenantId id);
  const TenantState* FindTenant(TenantId id) const;
  uint32_t queued_total() const { return queued_total_; }

  // Robustness counters (also exported as drr.* metrics when observed):
  // Dequeue giving up after kMaxPasses with schedulable work remaining, and
  // completions dropped because their tenant was already reaped.
  uint64_t pass_exhausted() const { return pass_exhausted_; }
  uint64_t orphan_completions() const { return orphan_completions_; }

  // Attach metrics sinks for the robustness counters. Null detaches.
  void AttachObservability(obs::Observability* obs, int ssd_index);

  // Invariant hooks: quantum grants, serves, slot opens and backlog
  // transitions (docs/TESTING.md). Null detaches.
  void AttachChecker(check::InvariantChecker* chk, int ssd_index) {
    chk_ = chk;
    ssd_index_ = ssd_index;
    if (chk_) {
      chk_->ConfigureDrr(ssd_index, params_.drr_quantum, params_.slot_bytes,
                         params_.write_cost_worst);
    }
  }

 private:
  void Activate(TenantState& t);
  void UpdateBusy(TenantState& t);
  // Return a no-longer-needed tenant's slot to the arena.
  void Reap(TenantId id);
  // Grant `rounds` DRR quanta to `t` at once and report to the checker.
  void GrantRounds(TenantState& t, uint64_t rounds);
  // Called when a full rotation of the active list produced no service:
  // advance every active tenant by the minimum number of whole rounds that
  // lets at least one of them cover its head-of-line IO. Preserves exact
  // DRR proportions (everyone advances the same round count) while keeping
  // Dequeue O(active) however many quanta a head IO weighs.
  void BoostStarvedRound();
  // TryOpenSlot under the current allotment, reporting the new occupancy
  // to the checker.
  bool OpenSlot(TenantState& t);
  // Report whether `t` is eligible for service (queued work and not
  // deferred); the checker measures fairness only across such tenants.
  void NotifyBacklog(TenantState& t) {
    if (chk_) {
      chk_->OnDrrBacklog(t.id(), ssd_index_,
                         t.HasQueued() && !t.in_deferred);
    }
  }
  bool IsBusy(const TenantState& t) const {
    return t.HasQueued() || t.SlotsInUse() > 0;
  }

  const GimbalParams& params_;
  const WriteCostEstimator& cost_;
  // Dense per-tenant state: one arena slot per live tenant, indexed by id.
  // Replaces three parallel unordered_maps (state/weights/busy) whose node
  // churn dominated at 100k-session scale; dispatch now does zero hashing
  // on the hot path (active_ carries stable TenantState pointers).
  common::SlabArena<TenantState> tenants_;
  common::IdIndexMap index_;
  std::deque<TenantState*> active_;
  uint32_t busy_tenants_ = 0;
  uint32_t queued_total_ = 0;
  uint64_t pass_exhausted_ = 0;
  uint64_t orphan_completions_ = 0;
  check::InvariantChecker* chk_ = nullptr;
  int ssd_index_ = -1;
  obs::Counter* m_pass_exhausted_ = nullptr;
  obs::Counter* m_orphan_completions_ = nullptr;
};

}  // namespace gimbal::core
