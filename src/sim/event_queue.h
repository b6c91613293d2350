// Priority queue of timed events for the discrete-event simulator.
//
// Events fire in (time, insertion-order) order so the simulation is fully
// deterministic even when many events share a timestamp. The queue is a
// binary min-heap of 24-byte {when, seq, node, gen} entries over a pooled,
// recycled node slab that holds the callbacks (EventFn is sim/event.h's
// allocation-free InlineFn); heap operations move entries only.
//
// Push returns a TimerHandle that can Cancel or Reschedule the event while
// it is pending. Cancellation destroys the callback and recycles the node
// immediately; the heap keeps only a tombstone entry that is skipped (and
// reclaimed) when it surfaces. A cancelled or fired handle goes inert —
// Cancel/Reschedule on it are safe no-ops — so completed IOs can always
// tear down their timers without bookkeeping.
//
// Ordering contract (see docs/SIMULATOR.md): every live event fires in
// ascending (when, seq); seq is assigned at Push and re-assigned at
// Reschedule, i.e. a rescheduled event orders as if freshly pushed.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/time.h"
#include "sim/event.h"

namespace gimbal::sim {

class EventQueue;

// A claim on one pending event. Copyable; all copies refer to the same
// event, and each operation validates against the event's generation, so a
// stale handle (event already fired, cancelled or rescheduled elsewhere)
// is inert. Default-constructed handles are inert. A handle must not
// outlive its queue.
class TimerHandle {
 public:
  TimerHandle() = default;

  // True while the event is still pending.
  inline bool active() const;
  // Cancels the pending event; returns true if this call cancelled it
  // (false if it already fired, was cancelled, or the handle is inert).
  inline bool Cancel();
  // Moves the pending event to absolute time `when`, reusing its callback
  // and node; the event re-enters the ordering as if freshly pushed (new
  // seq). This handle tracks the moved event. Returns false (and does
  // nothing) if the event is no longer pending.
  inline bool Reschedule(Tick when);

 private:
  friend class EventQueue;
  TimerHandle(EventQueue* queue, uint32_t node, uint32_t gen)
      : queue_(queue), node_(node), gen_(gen) {}

  EventQueue* queue_ = nullptr;
  uint32_t node_ = 0;
  uint32_t gen_ = 0;
};

class EventQueue {
 public:
  TimerHandle Push(Tick when, EventFn fn) {
    const uint32_t node = AllocNode(when, std::move(fn));
    HeapPush({when, pool_[node].seq, node, pool_[node].gen});
    ++live_;
    return TimerHandle(this, node, pool_[node].gen);
  }

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  // Earliest live event's time. Requires !empty().
  Tick next_time() {
    const Entry* top = LiveTop();
    assert(top != nullptr);
    return top->when;
  }

  // Removes and returns the earliest live event's callback; sets *when.
  EventFn Pop(Tick* when) {
    const Entry* top = LiveTop();
    assert(top != nullptr);
    const Entry e = *top;
    HeapPop();
    *when = e.when;
    Node& n = pool_[e.node];
    EventFn fn = std::move(n.fn);
    FreeNode(e.node);
    --live_;
    return fn;
  }

  // Empties the queue and resets all ordering state — including the
  // insertion sequence, so a cleared queue behaves exactly like a freshly
  // constructed one (Testbed reuse must not leak seq across runs). The
  // node slab is retained but every generation is bumped, so handles taken
  // before the Clear stay inert rather than aliasing recycled nodes.
  void Clear() {
    heap_.clear();
    free_head_ = kNone;
    for (uint32_t i = 0; i < pool_.size(); ++i) {
      Node& n = pool_[i];
      if (n.fn) n.fn.Reset();
      ++n.gen;
      n.next_free = free_head_;
      free_head_ = i;
    }
    live_ = 0;
    tombstones_ = 0;
    next_seq_ = 0;
  }

  uint64_t next_seq() const { return next_seq_; }
  // Tombstone entries currently parked in the heap (cancelled or
  // rescheduled-away events whose entries have not surfaced yet).
  size_t tombstones() const { return tombstones_; }

 private:
  friend class TimerHandle;

  // --- Storage -------------------------------------------------------------

  static constexpr uint32_t kNone = UINT32_MAX;

  struct Node {
    Tick when = 0;
    uint64_t seq = 0;
    uint32_t gen = 0;
    uint32_t next_free = kNone;
    EventFn fn;
  };

  struct Entry {
    Tick when;
    uint64_t seq;
    uint32_t node;
    uint32_t gen;
  };

  // Max-heap comparator inverted: "a fires later than b".
  static bool Later(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  uint32_t AllocNode(Tick when, EventFn fn) {
    uint32_t id;
    if (free_head_ != kNone) {
      id = free_head_;
      free_head_ = pool_[id].next_free;
    } else {
      id = static_cast<uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    Node& n = pool_[id];
    n.when = when;
    n.seq = next_seq_++;
    n.fn = std::move(fn);
    n.next_free = kNone;
    return id;
  }

  void FreeNode(uint32_t id) {
    Node& n = pool_[id];
    if (n.fn) n.fn.Reset();
    ++n.gen;  // all outstanding entries/handles for this node go stale
    n.next_free = free_head_;
    free_head_ = id;
  }

  bool Stale(const Entry& e) const { return pool_[e.node].gen != e.gen; }

  // --- TimerHandle backend -------------------------------------------------

  // Generation match alone decides liveness: FreeNode, Clear and
  // Reschedule all bump the node's generation, so a matching handle can
  // only refer to a still-pending event (which may carry a null callback —
  // Push(when, nullptr) is a legal "pure timer").
  bool NodeActive(uint32_t node, uint32_t gen) const {
    return node < pool_.size() && pool_[node].gen == gen;
  }

  bool CancelNode(uint32_t node, uint32_t gen) {
    if (!NodeActive(node, gen)) return false;
    FreeNode(node);
    --live_;
    ++tombstones_;
    return true;
  }

  // Returns the new generation, or 0 if the event was no longer pending.
  uint32_t RescheduleNode(uint32_t node, uint32_t gen, Tick when) {
    if (!NodeActive(node, gen)) return 0;
    Node& n = pool_[node];
    ++n.gen;  // strand the old entry as a tombstone
    ++tombstones_;
    n.when = when;
    n.seq = next_seq_++;
    HeapPush({when, n.seq, node, n.gen});
    return n.gen;
  }

  // --- Binary heap -----------------------------------------------------------

  void HeapPush(const Entry& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  void HeapPop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    heap_.pop_back();
  }

  // Discards tombstones at the top of the heap; returns the live top, or
  // nullptr if the heap drained empty.
  const Entry* LiveTop() {
    while (!heap_.empty()) {
      if (!Stale(heap_.front())) return &heap_.front();
      --tombstones_;
      HeapPop();
    }
    return nullptr;
  }

  // Callbacks live in the slab and never move once placed; the heap
  // shuffles 24-byte entries only.
  std::vector<Node> pool_;
  uint32_t free_head_ = kNone;
  size_t live_ = 0;
  size_t tombstones_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;
};

inline bool TimerHandle::active() const {
  return queue_ != nullptr && queue_->NodeActive(node_, gen_);
}

inline bool TimerHandle::Cancel() {
  return queue_ != nullptr && queue_->CancelNode(node_, gen_);
}

inline bool TimerHandle::Reschedule(Tick when) {
  if (queue_ == nullptr) return false;
  const uint32_t gen = queue_->RescheduleNode(node_, gen_, when);
  if (gen == 0) return false;
  gen_ = gen;
  return true;
}

}  // namespace gimbal::sim
