// A serially-shared resource (a CPU core, a NAND channel or die, a link).
//
// Work items occupy the resource for a duration, one at a time. Items
// queue in two classes: high-priority work (host reads on a NAND die) is
// served before queued default (low) work — programs, GC, erase slices, and
// everything on resources that use one class only, which therefore run
// FIFO — but never preempts the occupant mid-operation. This models the
// read-priority / suspension behaviour of real SSD controllers and is the
// building block for the target's reactor cores (Fig 3 / 16 / Table 1),
// the SSD's channels and dies, and the rack links.
//
// The occupant's callback is parked in the resource (running_) rather than
// captured inside the completion closure, so the event scheduled on the
// simulator captures only `this` and stays within EventFn's inline buffer
// — nested wrapping of an EventFn in another closure would spill every
// resource completion to the heap.
#pragma once

#include <deque>
#include <utility>

#include "common/fifo.h"
#include "common/time.h"
#include "sim/simulator.h"

namespace gimbal::sim {

class Resource {
 public:
  explicit Resource(Simulator& sim) : sim_(sim) {}

  // Occupy the resource for `duration`, then invoke `done` (may be null).
  // If busy, the request queues behind earlier default-class ones.
  void Acquire(Tick duration, EventFn done) {
    AcquireDeferred(duration, 0, std::move(done));
  }

  // Occupy the resource for `duration`; `done` then fires `extra` ticks
  // later without occupying it (a link's propagation delay after
  // serialization, staging latency after a core step). Equivalent to
  // wrapping `done` in an After() from the completion callback, minus the
  // extra closure layer.
  void AcquireDeferred(Tick duration, Tick extra, EventFn done) {
    low_.push_back(Item{duration, extra, std::move(done)});
    OnQueued(duration);
  }

  // Like Acquire, but served before every queued default-class item.
  void AcquireHigh(Tick duration, EventFn done) {
    high_.push_back(Item{duration, 0, std::move(done)});
    OnQueued(duration);
  }

  bool busy() const { return busy_; }
  size_t queue_depth() const { return high_.size() + low_.size(); }

  // Total busy time ever scheduled; used for utilization accounting.
  Tick busy_time_total() const { return busy_accum_; }

 private:
  struct Item {
    Tick duration;
    Tick extra;
    EventFn done;
  };

  void OnQueued(Tick duration) {
    busy_accum_ += duration;
    if (!busy_) StartNext();
  }

  void StartNext() {
    if (!high_.empty()) {
      running_ = std::move(high_.front());
      high_.pop_front();
    } else if (!low_.empty()) {
      running_ = std::move(low_.front());
      low_.pop_front();
    } else {
      busy_ = false;
      return;
    }
    busy_ = true;
    sim_.After(running_.duration, [this]() {
      Item item = std::move(running_);
      // Keep the historical event order: the occupant's continuation is
      // scheduled/run before the next occupant starts.
      if (item.extra > 0) {
        sim_.After(item.extra, std::move(item.done));
      } else if (item.done) {
        item.done();
      }
      StartNext();
    });
  }

  Simulator& sim_;
  // Only NAND dies use the high class, and an empty Fifo allocates nothing
  // (an empty std::deque allocates ~0.6 KiB). The low queue stays a deque,
  // which returns memory as a backlog drains; a Fifo keeps its peak.
  common::Fifo<Item> high_;
  std::deque<Item> low_;
  Item running_{};
  bool busy_ = false;
  Tick busy_accum_ = 0;
};

}  // namespace gimbal::sim
