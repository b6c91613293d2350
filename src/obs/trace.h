// Structured event tracing on the simulated clock.
//
// Instruments record point events (Instant) and duration events (Span) with
// the tenant/SSD labels and up to three numeric arguments. Timestamps are
// simulator ticks (nanoseconds), supplied by the caller — the tracer never
// reads a clock itself, so recorded order always matches simulated time at
// each call site.
//
// Exports:
//   * ToChromeJson() — the Chrome trace-event format, loadable in
//     chrome://tracing / https://ui.perfetto.dev (pid = SSD, tid = tenant),
//   * ToJsonl()      — one compact JSON object per line for ad-hoc tooling.
//
// Disabled cost: every record call is an inlined `if (!enabled_) return;`.
// A tracer with no sink attached (the default) therefore adds one branch
// per call site and allocates nothing.
//
// The event buffer is bounded (Enable(limit)); once full, further events
// are counted in dropped() instead of recorded, so a long bench run cannot
// exhaust memory. Exports embed the drop count.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/labels.h"

namespace gimbal::obs {

// One named numeric argument. `key` must be a string literal (or otherwise
// outlive the tracer); events store the pointer, not a copy.
struct TraceArg {
  const char* key;
  double value;
};

class EventTracer {
 public:
  static constexpr size_t kDefaultLimit = 1u << 20;  // ~1M events
  static constexpr size_t kMaxArgs = 3;

  bool enabled() const { return enabled_; }
  void Enable(size_t limit = kDefaultLimit) {
    enabled_ = true;
    limit_ = limit;
    events_.reserve(limit < 4096 ? limit : 4096);
  }

  // Point event at simulated time `ts`.
  void Instant(Tick ts, const char* name, Labels labels,
               std::initializer_list<TraceArg> args = {}) {
    if (!enabled_) return;
    Push(ts, /*dur=*/-1, name, labels, args);
  }

  // Duration event covering [start, start + dur].
  void Span(Tick start, Tick dur, const char* name, Labels labels,
            std::initializer_list<TraceArg> args = {}) {
    if (!enabled_) return;
    Push(start, dur, name, labels, args);
  }

  struct Event {
    Tick ts = 0;
    Tick dur = -1;  // -1: instant
    const char* name = nullptr;
    Labels labels;
    uint32_t nargs = 0;
    std::array<TraceArg, kMaxArgs> args{};
  };

  const std::vector<Event>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  size_t dropped() const { return dropped_; }
  size_t limit() const { return limit_; }
  void Clear() {
    events_.clear();
    dropped_ = 0;
  }

  // Order-sensitive FNV-1a hash over every recorded event (timestamp,
  // duration, name, labels, args — values hashed by bit pattern). Two runs
  // of a deterministic simulation must produce equal digests; the
  // determinism golden test compares digests across seeds and repeats
  // (docs/SIMULATOR.md).
  uint64_t Digest() const;

  std::string ToChromeJson() const;
  std::string ToJsonl() const;
  // Writes ToJsonl() if `path` ends in ".jsonl", else ToChromeJson().
  bool WriteFile(const std::string& path) const;

 private:
  void Push(Tick ts, Tick dur, const char* name, Labels labels,
            std::initializer_list<TraceArg> args);

  bool enabled_ = false;
  size_t limit_ = kDefaultLimit;
  size_t dropped_ = 0;
  std::vector<Event> events_;
};

}  // namespace gimbal::obs
