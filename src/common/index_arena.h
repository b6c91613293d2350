// Dense index-pool arenas for per-tenant hot-path state.
//
// At 100k+ concurrent sessions the per-tenant `unordered_map`s that grew up
// in the scheduler, target, and checker become the dominant cost: every
// lookup is a pointer chase through a node allocated who-knows-where, and a
// churned tenant leaves a tombstone bucket behind. The two classes here
// replace that pattern:
//
//   SlabArena<T>   — slot storage with stable addresses (deque-backed) and a
//                    free-list. Freed slots are *recycled*, not destroyed:
//                    Allocate() on a recycled slot calls T::Reset(args...)
//                    so a TenantState's queue (common::Fifo) and slot
//                    buffers keep whatever capacity they grew to instead
//                    of being reallocated per connect; a tenant that never
//                    queued has none to keep. A dense live-index list
//                    (swap-remove) makes iteration O(live) and gives tests
//                    an exact "no orphaned slots" probe.
//
//   IdIndexMap     — open-addressing uint64 -> uint32 map (linear probing,
//                    backshift deletion) from an external id (TenantId,
//                    ledger key) to an arena slot. One flat allocation, no
//                    per-entry nodes, O(1) amortized everything.
//
// Both containers are deterministic: the same operation sequence produces
// the same slot assignments and the same live-iteration order, so they are
// safe anywhere the simulation schedule or the golden digests can see.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace gimbal::common {

template <typename T>
class SlabArena {
 public:
  static constexpr uint32_t kNullSlot = UINT32_MAX;

  // Returns the slot index. A fresh slot is constructed with `args`; a
  // recycled one gets T::Reset(args...) instead, preserving its buffers.
  template <typename... Args>
  uint32_t Allocate(Args&&... args) {
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slots_[slot].Reset(std::forward<Args>(args)...);
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back(std::forward<Args>(args)...);
      pos_.push_back(0);
    }
    pos_[slot] = static_cast<uint32_t>(live_.size());
    live_.push_back(slot);
    return slot;
  }

  void Free(uint32_t slot) {
    assert(slot < pos_.size());
    const uint32_t p = pos_[slot];
    assert(p < live_.size() && live_[p] == slot && "double free");
    const uint32_t moved = live_.back();
    live_[p] = moved;
    pos_[moved] = p;
    live_.pop_back();
    pos_[slot] = kNullSlot;
    free_.push_back(slot);
  }

  T& operator[](uint32_t slot) { return slots_[slot]; }
  const T& operator[](uint32_t slot) const { return slots_[slot]; }

  // Live slot indices in allocation-churn order (not sorted). Callers that
  // need a canonical order must sort on a key of their own.
  const std::vector<uint32_t>& live() const { return live_; }
  size_t size() const { return live_.size(); }
  bool empty() const { return live_.empty(); }
  // High-water slot count: live + free. Stays flat across churn because
  // freed slots are recycled before new ones are carved.
  size_t capacity() const { return slots_.size(); }
  size_t free_count() const { return free_.size(); }

 private:
  std::deque<T> slots_;          // deque: growth never moves elements
  std::vector<uint32_t> free_;   // recycled slot indices (LIFO)
  std::vector<uint32_t> live_;   // dense list of live slots
  std::vector<uint32_t> pos_;    // slot -> index in live_, kNullSlot if free
};

// Open-addressing hash map from a 64-bit id to a 32-bit arena slot.
// Linear probing with backshift deletion (no tombstones), power-of-two
// capacity, grown at ~70% load. Value kNotFound is reserved.
class IdIndexMap {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  IdIndexMap() { cells_.resize(kMinCapacity); }

  uint32_t Find(uint64_t key) const {
    const uint64_t mask = cells_.size() - 1;
    for (uint64_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      const Cell& c = cells_[i];
      if (!c.used) return kNotFound;
      if (c.key == key) return c.value;
    }
  }

  // Inserts or overwrites.
  void Put(uint64_t key, uint32_t value) {
    assert(value != kNotFound);
    if ((size_ + 1) * 10 >= cells_.size() * 7) Grow();
    const uint64_t mask = cells_.size() - 1;
    for (uint64_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      Cell& c = cells_[i];
      if (!c.used) {
        c = Cell{key, value, true};
        ++size_;
        return;
      }
      if (c.key == key) {
        c.value = value;
        return;
      }
    }
  }

  bool Erase(uint64_t key) {
    const uint64_t mask = cells_.size() - 1;
    uint64_t i = Hash(key) & mask;
    for (;; i = (i + 1) & mask) {
      if (!cells_[i].used) return false;
      if (cells_[i].key == key) break;
    }
    // Backshift: close the gap so probe chains stay contiguous.
    uint64_t hole = i;
    for (uint64_t j = (hole + 1) & mask; cells_[j].used; j = (j + 1) & mask) {
      const uint64_t home = Hash(cells_[j].key) & mask;
      // Move j into the hole unless j's home lies (cyclically) after the
      // hole — then the entry is already as close to home as it can be.
      const bool movable = ((j - home) & mask) >= ((j - hole) & mask);
      if (movable) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole] = Cell{};
    --size_;
    return true;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  struct Cell {
    uint64_t key = 0;
    uint32_t value = 0;
    bool used = false;
  };
  static constexpr size_t kMinCapacity = 16;

  static uint64_t Hash(uint64_t x) {
    // SplitMix64 finalizer: full avalanche so sequential tenant ids spread.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  void Grow() {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(old.size() * 2, Cell{});
    size_ = 0;
    for (const Cell& c : old) {
      if (c.used) Put(c.key, c.value);
    }
  }

  std::vector<Cell> cells_;
  size_t size_ = 0;
};

}  // namespace gimbal::common
