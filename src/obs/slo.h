// Per-tenant / aggregate latency-SLO tracking for open-loop experiments.
//
// A workload that owns client-observed end-to-end latencies feeds every
// sample into Record(); the tracker maintains
//
//   * aggregate lifetime read/write histograms (p99/p99.9 exported as
//     gauges alongside the full distributions),
//   * per-tenant violation accounting over fixed wall-aligned windows:
//     a window violates an objective (say read p99 <= X) when more than
//     the allowed fraction of that window's samples exceeded X — i.e.
//     over/total > 1 - quantile. Windows with no samples are not counted.
//
// The per-window math is O(1) per sample: four compare-and-increment
// counters, no per-window histogram. Per-tenant state lives in a
// SlabArena (common/index_arena.h) so 100k churning sessions cost one
// recycled ~64-byte slot each, and disconnect frees the slot after closing
// the open window. Aggregate totals (windows, violations, tenants ever in
// violation) accumulate tracker-side, so churned tenants keep counting.
//
// Metric schema (obs/schema.h, mirrored in docs/OBSERVABILITY.md):
//   slo.latency.{read,write}_ns          histogram  aggregate e2e latency
//   slo.{read,write}.{p99,p999}_ns       gauge      aggregate quantiles
//   slo.windows / slo.windows_violated   counter    closed windows
//   slo.tenant.windows_violated          counter    per-tenant (folded)
//   slo.time_in_violation_ns             gauge      violated x window len
//   slo.tenants.violated                 gauge      tenants ever violating
#pragma once

#include <cstdint>

#include "common/index_arena.h"
#include "common/time.h"
#include "nvme/types.h"
#include "obs/metrics.h"

namespace gimbal::obs {

// Latency objectives. A zero tick disables that objective; the window is
// the evaluation granularity for violation accounting.
struct SloSpec {
  Tick read_p99 = 0;
  Tick read_p999 = 0;
  Tick write_p99 = 0;
  Tick write_p999 = 0;
  Tick window = Milliseconds(100);
};

class SloTracker {
 public:
  explicit SloTracker(SloSpec spec) : spec_(spec) {}

  const SloSpec& spec() const { return spec_; }

  // One client-observed completion. `now` must be non-decreasing per
  // tenant (it is: samples arrive in simulated-event order).
  void Record(TenantId tenant, bool is_write, Tick latency, Tick now);

  // Close the tenant's open window and release its slot. Call when the
  // session disconnects; its totals stay in the aggregate counters.
  void OnDisconnect(TenantId tenant);

  // Close every open window (end of run). Tenant slots stay live so
  // Export() can still emit per-tenant series.
  void FinalizeWindows();

  // Aggregate views.
  const Histogram& read_latency() const { return read_hist_; }
  const Histogram& write_latency() const { return write_hist_; }
  uint64_t windows() const { return windows_; }
  uint64_t windows_violated() const { return windows_violated_; }
  Tick time_in_violation() const {
    return static_cast<Tick>(windows_violated_) * spec_.window;
  }

  // Emit the schema above into `reg`. Call once, after FinalizeWindows().
  void Export(MetricsRegistry& reg) const;

 private:
  struct TenantSlo {
    explicit TenantSlo(TenantId t) : tenant(t) {}
    void Reset(TenantId t) { *this = TenantSlo(t); }

    TenantId tenant = 0;
    uint64_t window_id = 0;   // aligned: sample_time / spec.window
    uint32_t read_n = 0;      // samples in the open window
    uint32_t write_n = 0;
    uint32_t over_read_p99 = 0;  // samples over each objective
    uint32_t over_read_p999 = 0;
    uint32_t over_write_p99 = 0;
    uint32_t over_write_p999 = 0;
    uint64_t violated = 0;    // lifetime violated windows (this tenant)
  };

  void CloseWindow(TenantSlo& t);

  SloSpec spec_;
  Histogram read_hist_;
  Histogram write_hist_;
  uint64_t windows_ = 0;
  uint64_t windows_violated_ = 0;
  uint64_t tenants_violated_ = 0;
  common::SlabArena<TenantSlo> tenants_;
  common::IdIndexMap index_;
};

}  // namespace gimbal::obs
