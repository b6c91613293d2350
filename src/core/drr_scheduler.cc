#include "core/drr_scheduler.h"

#include <algorithm>
#include <cassert>

#include "obs/schema.h"

namespace gimbal::core {

TenantState& DrrScheduler::GetTenant(TenantId id) {
  uint32_t slot = index_.Find(id);
  if (slot == common::IdIndexMap::kNotFound) {
    slot = tenants_.Allocate(id);
    index_.Put(id, slot);
  }
  return tenants_[slot];
}

const TenantState* DrrScheduler::FindTenant(TenantId id) const {
  const uint32_t slot = index_.Find(id);
  return slot == common::IdIndexMap::kNotFound ? nullptr : &tenants_[slot];
}

void DrrScheduler::Reap(TenantId id) {
  const uint32_t slot = index_.Find(id);
  assert(slot != common::IdIndexMap::kNotFound);
  index_.Erase(id);
  tenants_.Free(slot);
}

void DrrScheduler::UpdateBusy(TenantState& t) {
  bool busy = IsBusy(t);
  if (busy == t.busy) return;
  t.busy = busy;
  busy_tenants_ += busy ? 1 : -1;
}

void DrrScheduler::Activate(TenantState& t) {
  if (t.in_active || t.in_deferred) return;
  t.in_active = true;
  t.new_round = true;
  active_.push_back(&t);
}

bool DrrScheduler::OpenSlot(TenantState& t) {
  if (!t.TryOpenSlot(AllottedSlots())) return false;
  if (chk_) {
    chk_->OnSlotOpen(t.id(), ssd_index_, t.SlotsInUse(), AllottedSlots());
  }
  return true;
}

void DrrScheduler::AttachObservability(obs::Observability* obs,
                                       int ssd_index) {
  if (!obs) {
    m_pass_exhausted_ = nullptr;
    m_orphan_completions_ = nullptr;
    return;
  }
  const obs::Labels l = obs::Labels::Ssd(ssd_index);
  m_pass_exhausted_ = &obs->metrics.GetCounter(obs::schema::kDrrPassExhausted, l);
  m_orphan_completions_ =
      &obs->metrics.GetCounter(obs::schema::kDrrOrphanCompletions, l);
}

void DrrScheduler::GrantRounds(TenantState& t, uint64_t rounds) {
  const uint64_t deficit_before = t.deficit;
  uint64_t quantum = params_.drr_quantum;
  if (GIMBAL_MUT(kDrrSkew) && t.id() % 2 == 0) quantum *= 4;
  t.deficit += rounds * quantum;
  if (chk_) {
    chk_->OnDrrQuantum(t.id(), ssd_index_, deficit_before, t.deficit, rounds);
  }
}

void DrrScheduler::BoostStarvedRound() {
  const uint64_t quantum = params_.drr_quantum;
  uint64_t best = 0;
  for (TenantState* t : active_) {
    const IoRequest& head = t->Peek();
    const uint64_t weighted =
        cost_.WeightedBytes(head.type == IoType::kWrite, head.length);
    if (t->deficit >= weighted) return;  // someone can serve already
    // Whole rounds past the shortfall: floor + 2, i.e. the ceiling plus a
    // spare round. Every Gimbal figure's grants depend on this exact count.
    const uint64_t rounds = (weighted - t->deficit) / quantum + 2;
    if (best == 0 || rounds < best) best = rounds;
  }
  for (TenantState* t : active_) {
    GrantRounds(*t, best);
    t->new_round = false;
  }
}

void DrrScheduler::Enqueue(const IoRequest& req) {
  TenantState& t = GetTenant(req.tenant);
  t.Enqueue(req);
  ++queued_total_;
  UpdateBusy(t);
  Activate(t);
  NotifyBacklog(t);
}

std::optional<DrrScheduler::Scheduled> DrrScheduler::Dequeue() {
  // Keep cycling DRR rounds until a request qualifies or no tenant remains
  // schedulable. Rounds are free when nobody else competes — a head IO
  // whose weighted size spans several quanta (e.g. a 128 KiB write at
  // write cost 9) simply accumulates deficit across consecutive rounds,
  // exactly as §3.5 describes. Termination: every pass either removes a
  // tenant (idle/deferred) or raises every remaining tenant's deficit by a
  // quantum, and weighted sizes are bounded by slot_bytes x worst cost.
  constexpr int kMaxPasses = 100000;
  size_t rotations = 0;  // consecutive rotations with no serve/removal
  for (int i = 0; i < kMaxPasses && !active_.empty(); ++i) {
    TenantState* t = active_.front();
    if (!t->HasQueued()) {
      // Idle tenant leaves the round and forfeits its deficit.
      t->deficit = 0;
      t->in_active = false;
      t->DropEmptyOpenSlot();
      active_.pop_front();
      UpdateBusy(*t);
      NotifyBacklog(*t);
      rotations = 0;
      continue;
    }
    if (!t->HasOpenSlot() && !OpenSlot(*t)) {
      // Out of virtual slots: move to deferred, zero the deficit
      // (Algorithm 2 / §3.5).
      t->deficit = 0;
      t->in_active = false;
      t->in_deferred = true;
      active_.pop_front();
      NotifyBacklog(*t);
      rotations = 0;
      continue;
    }
    if (t->new_round) {
      GrantRounds(*t, 1);
      t->new_round = false;
    }
    const IoRequest& head = t->Peek();
    uint64_t weighted =
        cost_.WeightedBytes(head.type == IoType::kWrite, head.length);
    if (t->deficit < weighted) {
      // Not enough deficit this round: rotate to the back and earn a new
      // quantum when the head of the list comes around again.
      active_.pop_front();
      t->in_active = false;
      Activate(*t);
      if (++rotations >= active_.size()) {
        // A full rotation granted everyone a quantum yet served nothing:
        // jump everyone forward by the same whole-round count instead of
        // spinning one byte-fraction at a time.
        BoostStarvedRound();
        rotations = 0;
      }
      continue;
    }
    Scheduled out;
    out.req = t->Pop();
    --queued_total_;
    t->deficit -= weighted;
    if (chk_) {
      chk_->OnDrrServe(t->id(), ssd_index_, weighted);
    }
    out.slot_id = t->ChargeSlot(weighted, params_.slot_bytes);
    // If the slot filled and no further slot can open, the tenant defers
    // immediately so it cannot monopolize the next dequeue.
    if (!t->HasOpenSlot() && !OpenSlot(*t)) {
      t->deficit = 0;
      t->in_active = false;
      t->in_deferred = true;
      active_.pop_front();
    }
    UpdateBusy(*t);
    NotifyBacklog(*t);
    return out;
  }
  if (!active_.empty()) {
    // Schedulable work remains but kMaxPasses rounds could not serve it —
    // a scheduler bug by construction (BoostStarvedRound bounds the rounds
    // any head IO needs). Report loudly instead of stalling silently.
    ++pass_exhausted_;
    if (m_pass_exhausted_) m_pass_exhausted_->Add(1);
    if (chk_) {
      chk_->OnDrrPassExhausted(ssd_index_, kMaxPasses,
                               static_cast<uint64_t>(active_.size()),
                               queued_total_);
    }
  }
  return std::nullopt;
}

std::vector<IoRequest> DrrScheduler::Disconnect(TenantId tenant) {
  const uint32_t slot = index_.Find(tenant);
  if (slot == common::IdIndexMap::kNotFound) return {};
  TenantState& t = tenants_[slot];
  active_.erase(std::remove(active_.begin(), active_.end(), &t),
                active_.end());
  t.in_active = false;
  t.in_deferred = false;
  t.deficit = 0;
  std::vector<IoRequest> dropped = t.DrainQueues();
  queued_total_ -= static_cast<uint32_t>(dropped.size());
  t.DropEmptyOpenSlot();
  t.disconnected = true;
  UpdateBusy(t);
  NotifyBacklog(t);
  // Everything rides in the arena slot and is reaped with it, so churn
  // cannot grow memory unboundedly.
  if (!IsBusy(t)) Reap(tenant);
  return dropped;
}

std::vector<IoRequest> DrrScheduler::DrainAll() {
  std::vector<IoRequest> dropped;
  for (uint32_t slot : tenants_.live()) {
    TenantState& t = tenants_[slot];
    std::vector<IoRequest> d = t.DrainQueues();
    queued_total_ -= static_cast<uint32_t>(d.size());
    dropped.insert(dropped.end(), d.begin(), d.end());
    t.DropEmptyOpenSlot();
    t.deficit = 0;
    t.in_active = false;
    t.in_deferred = false;
    UpdateBusy(t);
    NotifyBacklog(t);
  }
  active_.clear();
  // Arena live order depends on churn history; sort so the fail-fast
  // completions reach clients in a reproducible order.
  std::sort(dropped.begin(), dropped.end(),
            [](const IoRequest& a, const IoRequest& b) {
              return a.tenant != b.tenant ? a.tenant < b.tenant : a.id < b.id;
            });
  return dropped;
}

void DrrScheduler::OnCompletion(TenantId tenant, uint64_t slot_id) {
  const uint32_t slot = index_.Find(tenant);
  if (slot == common::IdIndexMap::kNotFound) {
    // Late or duplicate completion for a tenant whose state was already
    // reaped (Disconnect + last inflight drained). Creating state here
    // would resurrect a ghost entry that nothing ever erases again — a
    // leak under tenant churn. Drop it, count it.
    ++orphan_completions_;
    if (m_orphan_completions_) m_orphan_completions_->Add(1);
    return;
  }
  TenantState& t = tenants_[slot];
  t.OnCompletion(slot_id);
  ++t.ios_completed;
  if (!t.HasQueued()) t.ReapQuiescentOpenSlot();
  if (t.disconnected) {
    UpdateBusy(t);
    NotifyBacklog(t);
    if (!IsBusy(t)) Reap(tenant);
    return;
  }
  if (t.in_deferred) {
    if (t.HasQueued()) {
      // Algorithm 2, Sched_Complete: a freed slot re-activates the tenant
      // at the end of the active list.
      if (OpenSlot(t)) {
        t.in_deferred = false;
        Activate(t);
      }
    } else {
      // Nothing left to schedule: leave the deferred list and go idle.
      t.in_deferred = false;
    }
  }
  UpdateBusy(t);
  NotifyBacklog(t);
}

uint32_t DrrScheduler::CreditFor(TenantId tenant) const {
  const TenantState* t = FindTenant(tenant);
  if (t == nullptr) return AllottedSlots() * 4;
  uint32_t credit = AllottedSlots() * t->last_slot_io_count();
  return credit > 0 ? credit : 1;
}

}  // namespace gimbal::core
