// Virtual slots and per-tenant scheduler state (§3.5, Algorithm 2).
//
// A virtual slot is a group of IOs totalling up to 128 KiB of
// cost-weighted bytes (1 x 128 KiB, 32 x 4 KiB, ...). Slots normalize IO
// cost across sizes/types: a tenant may only have `allotted` slots with
// incomplete IOs, which upper-bounds its share of the SSD's internal
// resources regardless of how it shapes its requests, and fixes the
// deceptive-idleness problem (an allotted slot cannot be stolen).
#pragma once

#include <cstdint>
#include <vector>

#include "common/fifo.h"
#include "core/params.h"
#include "nvme/types.h"

namespace gimbal::core {

struct VirtualSlot {
  uint64_t id = 0;           // identifies the slot an inflight IO belongs to
  uint32_t submits = 0;      // IOs placed into the slot
  uint32_t completions = 0;  // IOs completed
  uint64_t weighted_bytes = 0;
  bool is_full = false;      // closed: no further IOs may join

  bool Complete() const { return is_full && submits == completions; }
};

// Scheduler-side view of one tenant. Instances live in the scheduler's
// SlabArena and are recycled across connect/disconnect churn: Reset()
// reinitializes every field but keeps the queue/slot buffers' capacity.
class TenantState {
 public:
  explicit TenantState(TenantId id) : id_(id) {}

  // Arena-recycle hook: restore the freshly-constructed state for a new
  // tenant without surrendering heap buffers.
  void Reset(TenantId id) {
    deficit = 0;
    in_active = false;
    in_deferred = false;
    new_round = true;
    disconnected = false;
    busy = false;
    ios_completed = 0;
    bytes_completed = 0;
    id_ = id;
    for (auto& q : queues_) q.clear();
    queued_ = 0;
    rr_cursor_ = 0;
    rr_budget_ = 0;
    slots_.clear();
    next_slot_id_ = 1;
    last_slot_io_count_ = 4;
  }

  TenantId id() const { return id_; }

  // --- Priority queues (§3.5) ----------------------------------------------
  void Enqueue(const IoRequest& req) {
    queues_[static_cast<int>(req.priority)].push_back(req);
    ++queued_;
  }
  bool HasQueued() const { return queued_ > 0; }
  uint32_t queued() const { return queued_; }

  // Peek/pop the next request by weighted round-robin over the priority
  // queues (weights 4/2/1 for high/normal/low).
  const IoRequest& Peek();
  IoRequest Pop();

  // --- Virtual slots --------------------------------------------------------
  // Slots whose IOs have not all completed (open or closed).
  uint32_t SlotsInUse() const {
    return static_cast<uint32_t>(slots_.size());
  }
  bool HasOpenSlot() const {
    return !slots_.empty() && !slots_.back().is_full;
  }
  // Open a new slot if the allotment permits. Returns false when the
  // tenant must move to the deferred list.
  bool TryOpenSlot(uint32_t allotted) {
    if (GIMBAL_MUT(kSlotOverrun)) ++allotted;
    if (SlotsInUse() >= allotted) return false;
    slots_.push_back(VirtualSlot{.id = next_slot_id_++});
    return true;
  }
  // Charge a submitted IO to the open slot; closes it when full. Returns
  // the slot id the IO belongs to (carried alongside the inflight IO so
  // its completion is attributed exactly). `slot_bytes` is the slot
  // capacity (128 KiB).
  uint64_t ChargeSlot(uint64_t weighted_bytes, uint64_t slot_bytes);
  // Discard an open slot that never received an IO (a tenant that went
  // idle right after a slot was opened for it); such a slot would never
  // complete and would pin the tenant "busy" forever.
  void DropEmptyOpenSlot() {
    if (HasOpenSlot() && slots_.back().submits == 0) slots_.pop_back();
  }
  // Close out an open slot whose IOs have all completed, when the tenant
  // has nothing queued to fill it further. Without this a quiescent tenant
  // would hold a never-completing open slot forever, pinning it "busy" and
  // shrinking everyone else's allotment.
  bool ReapQuiescentOpenSlot() {
    if (!HasOpenSlot()) return false;
    VirtualSlot& slot = slots_.back();
    if (slot.submits == 0 || slot.completions < slot.submits) return false;
    last_slot_io_count_ = slot.submits;
    slots_.pop_back();
    return true;
  }
  // Record a completion against slot `slot_id`. Returns true if that
  // completion closed out a (full) slot; the freed slot's IO count is
  // stored as last_slot_io_count for the credit computation (§3.6).
  bool OnCompletion(uint64_t slot_id);

  uint32_t last_slot_io_count() const { return last_slot_io_count_; }

  // Remove and return every queued request (tenant disconnect).
  std::vector<IoRequest> DrainQueues() {
    std::vector<IoRequest> out;
    out.reserve(queued_);
    for (auto& q : queues_) {
      for (; !q.empty(); q.pop_front()) out.push_back(q.front());
    }
    queued_ = 0;
    return out;
  }

  // --- DRR state -------------------------------------------------------------
  uint64_t deficit = 0;
  bool in_active = false;
  bool in_deferred = false;
  bool new_round = true;  // quantum refresh pending at head of round
  bool disconnected = false;  // reaped once the last inflight IO completes

  // Whether the tenant currently counts toward the busy-tenant divisor of
  // AllottedSlots() (§3.5). Maintained by DrrScheduler::UpdateBusy.
  bool busy = false;

  // Completed-IO statistics for reporting.
  uint64_t ios_completed = 0;
  uint64_t bytes_completed = 0;

 private:
  TenantId id_;
  common::Fifo<IoRequest> queues_[kNumPriorities];
  uint32_t queued_ = 0;
  int rr_cursor_ = 0;      // priority queue being served
  int rr_budget_ = 0;      // remaining weight for the cursor queue
  std::vector<VirtualSlot> slots_;  // front = oldest
  uint64_t next_slot_id_ = 1;
  uint32_t last_slot_io_count_ = 4;  // conservative initial credit basis
};

}  // namespace gimbal::core
