// Metrics registry: named counters, gauges and log-bucketed latency
// histograms with per-tenant / per-SSD / per-run label dimensions.
//
// Usage pattern (hot-path friendly):
//   * instruments declare a static MetricDef (see obs/schema.h for the
//     repo-wide catalogue, mirrored in docs/OBSERVABILITY.md),
//   * at attach time they resolve a handle once with GetCounter/GetGauge/
//     GetHistogram and cache the pointer,
//   * the hot path is then a null-check plus an integer add / double store.
// With no Observability attached the instruments never touch the registry
// at all, so the disabled cost is one pointer compare.
//
// Snapshots serialize to JSON (one object per metric instance) or CSV (one
// row per instance); see MetricsRegistry::ToJson / ToCsv / WriteFile.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <tuple>

#include "common/histogram.h"
#include "obs/labels.h"

namespace gimbal::obs {

// Static descriptor of a metric family. The registry copies the strings, so
// call-site string literals are the expected usage.
struct MetricDef {
  const char* name;  // dotted lowercase, e.g. "policy.completed"
  const char* unit;  // "ios", "bytes", "ns", "bytes/s", "ratio", ...
  const char* help;  // one-line meaning
  const char* site;  // emitting call site, e.g. "core/gimbal_switch.cc"
};

class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  void Reset() { value_ = 0; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Reset() { value_ = 0; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

// Log-bucketed (HDR-style) histogram over non-negative integer samples,
// reporting count/min/mean/max and p50/p95/p99/p99.9. Quantiles of an
// empty histogram are defined as 0 (see LatencyHistogram::Percentile).
class Histogram {
 public:
  void Record(int64_t v) { hist_.Record(v); }
  void Reset() { hist_.Reset(); }

  void Merge(const Histogram& other) { hist_.Merge(other.hist_); }

  uint64_t count() const { return hist_.count(); }
  int64_t min() const { return hist_.min(); }
  int64_t max() const { return hist_.max(); }
  double mean() const { return hist_.mean(); }
  int64_t Quantile(double q) const { return hist_.Percentile(q); }
  const LatencyHistogram& hist() const { return hist_; }

 private:
  LatencyHistogram hist_;
};

class MetricsRegistry {
 public:
  // Resolve (creating on first use) the instance of `def` with `labels`
  // under the current run label. Returned references stay valid for the
  // registry's lifetime. Kind mismatches on the same (name, labels, run)
  // key are a programming error and assert in debug builds.
  Counter& GetCounter(const MetricDef& def, Labels labels = {});
  Gauge& GetGauge(const MetricDef& def, Labels labels = {});
  Histogram& GetHistogram(const MetricDef& def, Labels labels = {});

  // Per-tenant series cardinality cap: labels whose tenant id is at or
  // above the limit fold into the shared Labels::kOtherTenant series.
  // Instrumentation sites that resolve per-tenant metric handles pass
  // their labels through here first, so a tenant-churn workload keeps the
  // registry (and snapshot size) bounded while trace events — which are
  // per-event, not per-series — keep exact tenant ids. The default is far
  // above any figure experiment's tenant count, so small runs see exact
  // per-tenant series.
  Labels FoldTenant(Labels l) const {
    if (l.tenant >= tenant_series_limit_) l.tenant = Labels::kOtherTenant;
    return l;
  }
  void set_tenant_series_limit(int32_t limit) {
    tenant_series_limit_ = limit;
  }
  int32_t tenant_series_limit() const { return tenant_series_limit_; }

  // Run label applied to instances resolved from now on. The bench harness
  // sets it per testbed (e.g. "gimbal:a") so one binary's successive runs
  // stay distinct series.
  void set_run(std::string run) { run_ = std::move(run); }
  const std::string& run() const { return run_; }

  // Zero every counter and histogram carrying run label `run` (used at the
  // end of a warmup so totals cover only the measurement window, mirroring
  // WorkerStats::Reset). Gauges are point-in-time state and keep their
  // warmed-up values.
  void ResetRun(const std::string& run);

  size_t size() const { return instances_.size(); }

  // {"metrics":[{...}, ...]} — one object per instance with name, kind,
  // unit, help, site, labels and the value(s).
  std::string ToJson() const;
  // Header + one row per instance; histogram columns empty for scalars.
  std::string ToCsv() const;
  // Writes ToCsv() if `path` ends in ".csv", else ToJson(). Returns false
  // (and leaves no partial file behind) if the file cannot be opened.
  bool WriteFile(const std::string& path) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Instance {
    std::string name, unit, help, site, run;
    Labels labels;
    Kind kind;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  static const char* KindName(Kind k);
  Instance& Resolve(const MetricDef& def, Labels labels, Kind kind);

  // Key: (name, run, tenant, ssd). std::map keeps snapshot output sorted
  // and deterministic.
  using Key = std::tuple<std::string, std::string, int32_t, int32_t>;
  std::map<Key, Instance*> index_;
  std::deque<Instance> instances_;  // deque: stable element addresses
  std::string run_;
  int32_t tenant_series_limit_ = 256;
};

}  // namespace gimbal::obs
