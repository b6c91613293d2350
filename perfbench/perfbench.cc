// perfbench: the repository benchmark (README.md beside this file).
//
// Builds one of three workloads from the library's public API, runs it
// again and again for --seconds, checks every repetition, and prints each
// end-to-end metric by name and unit, host timings as medians with their
// sample counts. Every testbed runs the Gimbal scheme at threads=1 with
// observability detached.
//
// --trace 1 is the separate traced run behind the per-layer metrics: it
// alternates untraced repetitions with traced ones (an obs::Observability
// attached, the program's own counters read layer by layer), times the
// isolated layer drives at the sizes the traced repetition measured, and
// writes the benchmark's own spans as Chrome-trace JSON.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Any failed check makes `correct` false and the exit code 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/invariants.h"
#include "core/drr_scheduler.h"
#include "core/write_cost.h"
#include "kv/cluster.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "ssd/ssd.h"
#include "workload/fleet.h"
#include "workload/runner.h"

namespace {

using namespace gimbal;
using Clock = std::chrono::steady_clock;
using workload::Scheme;
using workload::SsdCondition;
using workload::Testbed;
using workload::TestbedConfig;

// Host time charged to the simulator: CPU time of the calling thread. Every
// testbed runs at threads=1, so all simulation happens on this thread, and
// unlike wall-clock time this does not count time it spent descheduled by
// other load on a shared host.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Heap memory in use right now, in KiB. Resident size would also count
// memory earlier repetitions freed but the allocator kept.
double HeapInUseKib() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / 1024.0;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- Latency quantiles ------------------------------------------------------

// Lower edge of the LatencyHistogram bucket whose upper edge is `upper`:
// values below 32 have exact buckets, larger ones span 2^(msb-5) values.
int64_t BucketLower(int64_t upper) {
  if (upper < 32) return upper;
  const int msb = 63 - __builtin_clzll(static_cast<uint64_t>(upper));
  return upper - (int64_t{1} << (msb - 5)) + 1;
}

// Quantile q of `h`, interpolated by rank inside the bucket that holds it.
// Bucket edges alone step by ~3%, so two seeds whose medians differ by less
// than a step would read the same; interpolation keeps the value continuous
// in the samples while agreeing with LatencyHistogram on the bucket.
double QuantileNs(const LatencyHistogram& h, double q) {
  const uint64_t n = h.count();
  if (n == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  auto at = [&](uint64_t r) {
    return h.Percentile((static_cast<double>(r) + 0.5) /
                        static_cast<double>(n));
  };
  const int64_t upper = at(rank);
  uint64_t lo = 0, hi = rank;  // first rank in the bucket
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (at(mid) >= upper) hi = mid; else lo = mid + 1;
  }
  const uint64_t first = lo;
  lo = rank;
  hi = n - 1;  // last rank in the bucket
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo + 1) / 2;
    if (at(mid) <= upper) lo = mid; else hi = mid - 1;
  }
  const uint64_t last = lo;
  const double lower = static_cast<double>(BucketLower(upper));
  return lower + (static_cast<double>(upper) - lower) *
                     (static_cast<double>(rank - first) + 0.5) /
                     static_cast<double>(last - first + 1);
}

// Samples of `h` in buckets that reach above `threshold` (bucket
// resolution, ~3%).
uint64_t CountAbove(const LatencyHistogram& h, int64_t threshold) {
  const uint64_t n = h.count();
  uint64_t lo = 0, hi = n;  // first rank whose bucket exceeds threshold
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    const int64_t v = h.Percentile((static_cast<double>(mid) + 0.5) /
                                   static_cast<double>(n));
    if (v > threshold) hi = mid; else lo = mid + 1;
  }
  return n - lo;
}

// --- Spans ------------------------------------------------------------------

// The benchmark's own spans around every call into a layer: name, host
// start and end, and the enclosing span. Kept in memory, written once at
// the end as Chrome-trace JSON. Disabled (the untraced run) it records
// nothing.
class SpanLog {
 public:
  void Enable() {
    on_ = true;
    origin_ = Clock::now();
  }

  int Begin(std::string name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), NowUs(), -1,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_us = NowUs();
    stack_.pop_back();
  }

  std::string ToChromeJson(const std::string& other_data) const {
    std::string out = "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      if (i > 0) out += ',';
      out += "{\"name\":" + obs::JsonQuote(s.name) +
             ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
             obs::JsonNumber(s.start_us) +
             ",\"dur\":" + obs::JsonNumber(s.end_us - s.start_us) +
             ",\"args\":{\"id\":" + std::to_string(i) +
             ",\"parent\":" + std::to_string(s.parent) + "}}";
    }
    out += "],\"otherData\":" + other_data + "}";
    return out;
  }

 private:
  struct SpanRec {
    std::string name;
    double start_us;
    double end_us;
    int parent;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool on_ = false;
  Clock::time_point origin_;
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(SpanLog& log, std::string name)
      : log_(log), id_(log.Begin(std::move(name))) {}
  ~Scope() { log_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// --- Registry reader --------------------------------------------------------

// Sums the series of one run in a metrics registry by metric name, over
// every tenant/SSD label, and merges histograms the same way. The registry
// lists its series only through its snapshots, so this reads the CSV one
// and re-resolves each histogram series by its labels.
class RegistryView {
 public:
  RegistryView(obs::MetricsRegistry& reg, std::string run)
      : reg_(reg), run_(std::move(run)) {
    std::istringstream csv(reg.ToCsv());
    std::string line;
    std::getline(csv, line);  // header
    while (std::getline(csv, line)) {
      std::vector<std::string> cells;
      std::string cell;
      std::istringstream row(line);
      while (std::getline(row, cell, ',')) cells.push_back(cell);
      if (cells.size() < 7 || cells[3] != run_) continue;
      Row r;
      r.name = cells[0];
      r.kind = cells[1];
      r.tenant = cells[4].empty()      ? -1
                 : cells[4] == "other" ? obs::Labels::kOtherTenant
                                       : std::atoi(cells[4].c_str());
      r.ssd = cells[5].empty() ? -1 : std::atoi(cells[5].c_str());
      r.value = cells[6].empty() ? 0 : std::atof(cells[6].c_str());
      rows_.push_back(std::move(r));
    }
  }

  double Sum(const std::string& name) const {
    double s = 0;
    for (const Row& r : rows_) {
      if (r.name == name) s += r.value;
    }
    return s;
  }

  double Mean(const std::string& name) const {
    double s = 0;
    int n = 0;
    for (const Row& r : rows_) {
      if (r.name == name) {
        s += r.value;
        ++n;
      }
    }
    return n > 0 ? s / n : 0;
  }

  LatencyHistogram Hist(const std::string& name) const {
    LatencyHistogram all;
    const std::string saved = reg_.run();
    reg_.set_run(run_);
    const obs::MetricDef def{name.c_str(), "", "", ""};
    for (const Row& r : rows_) {
      if (r.name != name || r.kind != "histogram") continue;
      all.Merge(reg_.GetHistogram(def, obs::Labels{r.tenant, r.ssd}).hist());
    }
    reg_.set_run(saved);
    return all;
  }

 private:
  struct Row {
    std::string name, kind;
    int32_t tenant = -1;
    int32_t ssd = -1;
    double value = 0;
  };
  obs::MetricsRegistry& reg_;
  std::string run_;
  std::vector<Row> rows_;
};

// --- What one repetition measures -------------------------------------------

// The modeled system's results over the measurement window. Deterministic:
// every repetition at one seed must reproduce them bit for bit.
struct Model {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed + aborted + shed
  double kops = 0;
  double p50_us = 0;
  double p999_us = 0;
  double read_p999_us = 0;
  double write_p999_us = -1;  // -1: not applicable to the workload
  double futil_min = -1;
  double slo_miss_pct = -1;

  bool operator==(const Model&) const = default;
};

// What the clients saw in one measurement window.
struct Window {
  double seconds = 0;   // simulated length
  uint64_t ok = 0;      // completed client ops
  uint64_t failed = 0;  // failed + aborted + shed
  LatencyHistogram all, reads, writes;
  bool has_writes = false;
  // fio_frag_rw: per-class bytes and standalone bandwidths (f-Util).
  int per_class = 0;
  uint64_t read_bytes = 0, write_bytes = 0;
  double read_sa = 0, write_sa = 0;
  // fleet_churn: ok reads over the latency objective; -1 = no objective.
  int64_t slo_over = -1;
};

// Model metrics over the pooled windows of several repetitions, as if
// they were one window as long as all of them together.
Model Summarize(const std::vector<const Window*>& windows) {
  Window p = *windows[0];
  for (size_t i = 1; i < windows.size(); ++i) {
    const Window& w = *windows[i];
    p.seconds += w.seconds;
    p.ok += w.ok;
    p.failed += w.failed;
    p.all.Merge(w.all);
    p.reads.Merge(w.reads);
    p.writes.Merge(w.writes);
    p.read_bytes += w.read_bytes;
    p.write_bytes += w.write_bytes;
    p.slo_over += w.slo_over;
  }
  Model m;
  m.attempted = p.ok + p.failed;
  m.failed = p.failed;
  m.kops = Ratio(static_cast<double>(p.ok), p.seconds) / 1000.0;
  m.p50_us = QuantileNs(p.all, 0.50) / 1000.0;
  m.p999_us = QuantileNs(p.all, 0.999) / 1000.0;
  m.read_p999_us = QuantileNs(p.reads, 0.999) / 1000.0;
  if (p.has_writes) m.write_p999_us = QuantileNs(p.writes, 0.999) / 1000.0;
  if (p.per_class > 0) {
    auto futil = [&](uint64_t bytes, double standalone) {
      return workload::FUtil(
          Ratio(static_cast<double>(bytes), p.seconds) / p.per_class,
          standalone, 2 * p.per_class);
    };
    m.futil_min = std::min(futil(p.read_bytes, p.read_sa),
                           futil(p.write_bytes, p.write_sa));
  }
  if (p.slo_over >= 0) {
    m.slo_miss_pct =
        100.0 * Ratio(static_cast<double>(p.failed + p.slo_over),
                      static_cast<double>(m.attempted));
  }
  return m;
}

// Sizes for the isolated layer drives, measured by a traced repetition.
struct Sizing {
  TestbedConfig bed;
  size_t pending = 1;               // live events at the window's end
  double event_gap_ns = 1000;       // simulated ns per executed event
  double read_fraction = 1;         // of SSD commands
  uint32_t io_bytes = 4096;         // mean SSD command size
  double device_outstanding = 1;    // mean commands inside one SSD
  size_t drr_registered = 1;        // tenants registered at one scheduler
  double drr_active = 1;            // mean tenants with IO at one pipeline
  size_t tenants = 1;               // tenants across all SSDs
};

struct Rep {
  double setup_s = 0;
  double run_s = 0;
  double measure_s = 0;  // host time of the measurement window alone
  uint64_t ops = 0;      // completed client ops in the window
  uint64_t events = 0;   // simulator events in the window
  int sub = 0;           // sub-seed index (see SubSeed)
  Window window;
  Model model;           // of this repetition's window alone
  bool checks_ok = true;
  // Layer numbers taken from every repetition, traced or not; -1 where the
  // workload has no such layer.
  double bulkload_s = -1;    // kv_ycsb_a: KvDb::BulkLoad, all instances
  double kib_per_seat = -1;  // fleet_churn: heap growth to the window's end
  // Traced repetitions only.
  std::map<std::string, double> layer;
  Sizing sizing;
  uint64_t digest = 0;
};

bool Fail(const char* what) {
  std::fprintf(stderr, "check failed: %s\n", what);
  return false;
}

// --- Testbed-level counters -------------------------------------------------

uint64_t SimEvents(Testbed& bed) {
  sim::ShardedEngine* e = bed.engine();
  if (e == nullptr) return bed.sim().events_executed();
  uint64_t n = 0;
  for (int i = 0; i < e->num_shards(); ++i) n += e->shard(i).events_executed();
  return n;
}

size_t SimPending(Testbed& bed) {
  sim::ShardedEngine* e = bed.engine();
  if (e == nullptr) return bed.sim().pending_events();
  size_t n = 0;
  for (int i = 0; i < e->num_shards(); ++i) n += e->shard(i).pending_events();
  return n;
}

// Counters the measurement window is the difference of.
struct Mark {
  double host = 0;  // CpuSeconds() when taken
  uint64_t events = 0;
  uint64_t epochs = 0;
  uint64_t checks = 0;
  uint64_t net_bytes = 0;
  uint64_t trace_events = 0;
  uint64_t buffer_hit_pages = 0;
  uint64_t ssd_read_pages = 0;
};

Mark TakeMark(Testbed& bed, obs::Observability* obs) {
  Mark m;
  m.events = SimEvents(bed);
  m.epochs = bed.engine() ? bed.engine()->epochs() : 0;
  m.checks = bed.checker().checks_run();
  m.net_bytes = bed.net().bytes_sent();
  if (obs) m.trace_events = obs->tracer.size() + obs->tracer.dropped();
  for (int i = 0; i < bed.config().num_ssds; ++i) {
    const ssd::SsdCounters& c = bed.ssd(i)->counters();
    m.buffer_hit_pages += c.buffer_hit_pages;
    m.ssd_read_pages += c.read_bytes / bed.config().ssd.page_bytes;
  }
  m.host = CpuSeconds();
  return m;
}

// Opens the measurement window: registry counters restart so they cover
// exactly the window (gauges keep their warmed-up values).
Mark OpenWindow(Testbed& bed, obs::Observability* obs) {
  if (obs) {
    bed.FlushObservability();
    obs->metrics.ResetRun(bed.config().run_label);
  }
  return TakeMark(bed, obs);
}

// Shuts every testbed-owned initiator down and runs the simulator to idle.
void DrainTestbed(Testbed& bed) {
  bed.sim().Run();
  for (auto& ini : bed.initiators()) {
    if (!ini->shutdown()) ini->Shutdown();
  }
  bed.sim().Run();
}

bool DrainedClean(Testbed& bed) {
  bool ok = true;
  if (!bed.sim().idle()) ok = Fail("simulator not idle after drain");
  if (bed.target().live_sessions() != 0) {
    ok = Fail("target session table not empty after drain");
  }
  // Fail-fast checker: a violation aborts the process inside the call.
  if (!bed.checker().CheckDrained()) ok = Fail("checker CheckDrained");
  return ok;
}

// Per-layer numbers every workload shares (sim, shard, ssd, core, fabric,
// check, obs), read when the measurement window closes, plus the sizes the
// isolated drives replay.
void CollectCommonLayers(Testbed& bed, obs::Observability& obs,
                         const Mark& a, const Mark& b, uint64_t ops,
                         Tick window, double client_mean_ns, Rep& rep) {
  bed.FlushObservability();
  const TestbedConfig& cfg = bed.config();
  const Mark end = TakeMark(bed, &obs);  // trace size after the flush
  RegistryView reg(obs.metrics, cfg.run_label);
  std::map<std::string, double>& L = rep.layer;
  const double events = static_cast<double>(b.events - a.events);
  const double dops = static_cast<double>(ops);
  const double window_s = ToSec(window);

  L["sim.events"] = events;
  L["sim.events_per_op"] = Ratio(events, dops);
  L["sim.pending_events"] = static_cast<double>(SimPending(bed));
  L["sim.inline_fn_heap_fallbacks"] =
      static_cast<double>(sim::InlineFn::heap_fallbacks());
  const double epochs = static_cast<double>(b.epochs - a.epochs);
  L["shard.epochs"] = epochs;
  L["shard.events_per_epoch"] = Ratio(events, epochs);
  L["shard.idle_wakeups"] =
      bed.engine() ? static_cast<double>(bed.engine()->idle_wakeups()) : 0;

  const LatencyHistogram device = reg.Hist("policy.latency.device_ns");
  const LatencyHistogram target = reg.Hist("policy.latency.target_ns");
  L["ssd.device_p50_us"] = QuantileNs(device, 0.50) / 1000.0;
  L["ssd.device_p99_us"] = QuantileNs(device, 0.99) / 1000.0;
  const double page = cfg.ssd.page_bytes;
  L["ssd.gc_pages_per_write_page"] = Ratio(
      reg.Sum("ssd.gc.pages_relocated"), reg.Sum("ssd.write.bytes") / page);
  L["ssd.buffer_hit_pct"] =
      100.0 * Ratio(static_cast<double>(b.buffer_hit_pages - a.buffer_hit_pages),
                    static_cast<double>(b.ssd_read_pages - a.ssd_read_pages));

  const double kios = reg.Sum("policy.completed") / 1000.0;
  L["core.wait_mean_us"] = (target.mean() - device.mean()) / 1000.0;
  L["core.pacing_stalls_per_kio"] = Ratio(reg.Sum("gimbal.pacing.stalls"), kios);
  L["core.congestion_signals_per_kio"] =
      Ratio(reg.Sum("gimbal.congestion.signals"), kios);
  L["core.overload_events"] = reg.Sum("gimbal.overload.events");
  L["core.write_cost"] = reg.Mean("gimbal.write_cost");
  L["core.drr.pass_exhausted"] = reg.Sum("drr.pass_exhausted");

  L["fabric.wait_mean_us"] = (client_mean_ns - target.mean()) / 1000.0;
  L["fabric.bytes_per_op"] =
      Ratio(static_cast<double>(b.net_bytes - a.net_bytes), dops);
  L["fabric.retries"] = reg.Sum("initiator.retries");
  L["fabric.timeouts"] = reg.Sum("initiator.timeouts");
  L["fabric.late_completions"] = reg.Sum("initiator.late_completions");

  L["check.checks_per_op"] =
      Ratio(static_cast<double>(b.checks - a.checks), dops);
  L["obs.trace_events_per_op"] =
      Ratio(static_cast<double>(end.trace_events - a.trace_events), dops);

  Sizing& s = rep.sizing;
  s.bed = cfg;
  s.bed.obs = nullptr;
  s.bed.check = nullptr;
  s.pending = std::max<size_t>(1, SimPending(bed));
  s.event_gap_ns = Ratio(static_cast<double>(window), events);
  const double rd = reg.Sum("ssd.read.commands");
  const double wr = reg.Sum("ssd.write.commands");
  s.read_fraction = Ratio(rd, rd + wr);
  const double bytes_per_cmd =
      Ratio(reg.Sum("ssd.read.bytes") + reg.Sum("ssd.write.bytes"), rd + wr);
  const uint32_t pages = static_cast<uint32_t>(
      std::clamp(std::lround(bytes_per_cmd / page), 1L, 32L));
  s.io_bytes = pages * cfg.ssd.page_bytes;
  const double ssds = cfg.num_ssds;
  s.device_outstanding = std::max(
      1.0, Ratio(static_cast<double>(device.count()), window_s) *
               device.mean() * 1e-9 / ssds);
  size_t registered = 1, total = 0;
  for (int i = 0; i < cfg.num_ssds; ++i) {
    const size_t t = bed.gimbal_switch(i)->scheduler().tenant_count();
    registered = std::max(registered, t);
    total += t;
  }
  s.drr_registered = registered;
  s.drr_active = std::clamp(Ratio(static_cast<double>(target.count()),
                                  window_s) *
                                target.mean() * 1e-9 / ssds,
                            1.0, static_cast<double>(registered));
  s.tenants = std::max<size_t>(1, total);
}

// --- Workloads ---------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  // smoke-test windows (the benchmark's own test)
  std::string spans_out;
  std::string commit = "unknown";
};

// Model metrics pool the measurement windows of this many sub-seeds of
// --seed: one window's tail percentiles move with the seed more than the
// benchmark's bounds allow, a pooled window is as steady as a longer run.
constexpr int kSubSeeds = 8;

uint64_t SubSeed(uint64_t seed, int sub) {
  return seed + static_cast<uint64_t>(sub) * 1'000'003;
}

class Workload {
 public:
  virtual ~Workload() = default;
  // One-off work outside every timed window.
  virtual void Prepare(SpanLog& spans) { (void)spans; }
  // Build, run, drain and check one repetition with inputs from `seed`;
  // `obs` non-null = traced.
  virtual Rep RunOnce(uint64_t seed, obs::Observability* obs,
                      SpanLog& spans) = 0;
};

TestbedConfig GimbalBed(int ssds, SsdCondition cond, uint64_t logical_bytes,
                        const char* label) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kGimbal;
  cfg.num_ssds = ssds;
  cfg.condition = cond;
  cfg.ssd.logical_bytes = logical_bytes;
  cfg.threads = 1;
  cfg.run_label = label;
  return cfg;
}

// fio_frag_rw: one fragmented SSD behind the SmartNIC target, 16 x 4 KiB
// random-read plus 16 x 4 KiB random-write fio tenants at QD32 (Fig 7c/8).
class FioFragRw : public Workload {
 public:
  explicit FioFragRw(const Options& o)
      : seed_(o.seed),
        warmup_(o.tiny ? Milliseconds(20) : Milliseconds(100)),
        measure_(o.tiny ? Milliseconds(50) : Milliseconds(1000)) {}

  static TestbedConfig BedConfig() {
    return GimbalBed(1, SsdCondition::kFragmented, 512ull << 20,
                     "fio_frag_rw");
  }

  void Prepare(SpanLog& spans) override {
    // f-Util denominators (§5.1): each class alone on the device, measured
    // once per invocation over the same windows.
    Scope s(spans, "futil.standalone");
    read_sa_ = workload::StandaloneBandwidth(
        BedConfig(), Spec(seed_, false, 0), warmup_, measure_, kPerClass);
    write_sa_ = workload::StandaloneBandwidth(
        BedConfig(), Spec(seed_, true, 0), warmup_, measure_, kPerClass);
  }

  Rep RunOnce(uint64_t seed, obs::Observability* obs,
              SpanLog& spans) override {
    Rep rep;
    TestbedConfig cfg = BedConfig();
    cfg.obs = obs;
    const double t_setup = CpuSeconds();
    std::unique_ptr<Testbed> bed;
    {
      Scope s(spans, "testbed.build");  // includes SSD preconditioning
      bed = std::make_unique<Testbed>(cfg);
      for (int i = 0; i < kPerClass; ++i) bed->AddWorker(Spec(seed, false, i));
      for (int i = 0; i < kPerClass; ++i) bed->AddWorker(Spec(seed, true, i));
    }
    rep.setup_s = CpuSeconds() - t_setup;

    const double t_run = CpuSeconds();
    {
      Scope s(spans, "window.warmup");
      for (auto& w : bed->workers()) w->Start();
      bed->sim().RunUntil(warmup_);
    }
    for (auto& w : bed->workers()) w->stats().Reset();
    const Mark a = OpenWindow(*bed, obs);
    {
      Scope s(spans, "window.measure");
      bed->sim().RunUntil(warmup_ + measure_);
    }
    const Mark b = TakeMark(*bed, obs);
    rep.measure_s = b.host - a.host;
    rep.events = b.events - a.events;

    // Results of the window, before the drain adds completions.
    Window& w = rep.window;
    w.seconds = ToSec(measure_);
    w.has_writes = true;
    w.per_class = kPerClass;
    w.read_sa = read_sa_;
    w.write_sa = write_sa_;
    for (int i = 0; i < 2 * kPerClass; ++i) {
      const workload::WorkerStats& st = bed->workers()[i]->stats();
      w.reads.Merge(st.read_latency);
      w.writes.Merge(st.write_latency);
      (i < kPerClass ? w.read_bytes : w.write_bytes) += st.total_bytes();
      w.ok += st.total_ios();
      w.failed += st.failed_ios;
    }
    w.all = w.reads;
    w.all.Merge(w.writes);
    rep.ops = w.ok;
    if (obs) {
      CollectCommonLayers(*bed, *obs, a, b, w.ok, measure_, w.all.mean(), rep);
    }

    {
      Scope s(spans, "drain");
      for (auto& w : bed->workers()) w->Stop();
      DrainTestbed(*bed);
    }
    rep.run_s = CpuSeconds() - t_run;
    rep.checks_ok = DrainedClean(*bed);
    for (auto& ini : bed->initiators()) {
      if (ini->inflight() != 0 || ini->queued() != 0) {
        rep.checks_ok = Fail("fio initiator still holds IOs after drain");
      }
    }
    return rep;
  }

 private:
  static constexpr int kPerClass = 16;

  // The paper's 4 KiB fio tenant (§5.1): random, QD32.
  static workload::FioSpec Spec(uint64_t seed, bool write, int i) {
    workload::FioSpec s;
    s.io_bytes = 4096;
    s.read_ratio = write ? 0.0 : 1.0;
    s.queue_depth = 32;
    s.seed = seed + static_cast<uint64_t>(i) + (write ? 101 : 1);
    return s;
  }

  uint64_t seed_;
  Tick warmup_;
  Tick measure_;
  double read_sa_ = 0;
  double write_sa_ = 0;
};

// kv_ycsb_a: the Fig 11 topology — 6 fragmented SSDs on 6 target cores,
// 8 KV instances with 20k x 1 KiB records, YCSB-A at 24 outstanding each.
class KvYcsbA : public Workload {
 public:
  explicit KvYcsbA(const Options& o)
      : instances_(o.tiny ? 2 : 8),
        records_(o.tiny ? 2'000 : 20'000),
        warmup_(o.tiny ? Milliseconds(20) : Milliseconds(250)),
        measure_(o.tiny ? Milliseconds(50) : Milliseconds(1000)) {}

  static TestbedConfig BedConfig() {
    TestbedConfig cfg =
        GimbalBed(kSsds, SsdCondition::kFragmented, 256ull << 20, "kv_ycsb_a");
    cfg.target.cores = kSsds;
    return cfg;
  }

  Rep RunOnce(uint64_t seed, obs::Observability* obs,
              SpanLog& spans) override {
    Rep rep;
    kv::KvClusterConfig cfg;
    cfg.testbed = BedConfig();
    cfg.testbed.obs = obs;
    cfg.hba.backend_bytes = 256ull << 20;
    cfg.db.memtable_bytes = 1ull << 20;

    const double t_setup = CpuSeconds();
    std::unique_ptr<kv::KvCluster> cluster;
    std::vector<std::unique_ptr<kv::YcsbClient>> clients;
    {
      Scope s(spans, "testbed.build");  // includes SSD preconditioning
      cluster = std::make_unique<kv::KvCluster>(cfg);
    }
    rep.bulkload_s = 0;
    for (int i = 0; i < instances_; ++i) {
      kv::KvCluster::Instance& inst = cluster->AddInstance();
      {
        Scope s(spans, "kv.bulkload");
        const double t0 = CpuSeconds();
        inst.db->BulkLoad(records_, kValueBytes);
        rep.bulkload_s += CpuSeconds() - t0;
      }
      workload::YcsbSpec spec;
      spec.workload = workload::YcsbWorkload::kA;
      spec.record_count = records_;
      spec.value_bytes = kValueBytes;
      spec.seed = seed + static_cast<uint64_t>(i) + 1;
      clients.push_back(std::make_unique<kv::YcsbClient>(
          cluster->sim(), *inst.db, spec, kOutstanding));
    }
    rep.setup_s = CpuSeconds() - t_setup;
    Testbed& bed = cluster->bed();

    const double t_run = CpuSeconds();
    {
      Scope s(spans, "window.warmup");
      for (auto& c : clients) c->Start();
      cluster->sim().RunUntil(warmup_);
    }
    // Client and DB stats stay cumulative (the books must balance over the
    // whole run); the window is the difference of two snapshots.
    std::vector<kv::YcsbClient::Stats> c0;
    for (auto& c : clients) c0.push_back(c->stats());
    const kv::KvDb::Stats d0 = DbTotals(*cluster);
    const Mark a = OpenWindow(bed, obs);
    {
      Scope s(spans, "window.measure");
      cluster->sim().RunUntil(warmup_ + measure_);
    }
    const Mark b = TakeMark(bed, obs);
    rep.measure_s = b.host - a.host;
    rep.events = b.events - a.events;

    Window& w = rep.window;
    w.seconds = ToSec(measure_);
    w.has_writes = true;
    uint64_t ops = 0;
    for (size_t i = 0; i < clients.size(); ++i) {
      const kv::YcsbClient::Stats& now = clients[i]->stats();
      const kv::YcsbClient::Stats& was = c0[i];
      ops += now.ops - was.ops;  // every resolved op, failed ones included
      w.failed += (now.failed - was.failed) + (now.aborted - was.aborted);
      w.all.Merge(now.op_latency.Subtract(was.op_latency));
      w.reads.Merge(now.read_latency.Subtract(was.read_latency));
      // YCSB-A is reads + updates: updates are all ops minus reads.
      const LatencyHistogram upd_now = now.op_latency.Subtract(now.read_latency);
      const LatencyHistogram upd_was = was.op_latency.Subtract(was.read_latency);
      w.writes.Merge(upd_now.Subtract(upd_was));
    }
    w.ok = ops - w.failed;
    rep.ops = ops;
    if (obs) {
      CollectCommonLayers(bed, *obs, a, b, ops, measure_, w.all.mean(), rep);
      const kv::KvDb::Stats d1 = DbTotals(*cluster);
      const double gets = static_cast<double>(d1.gets - d0.gets);
      const double puts = static_cast<double>(d1.puts - d0.puts);
      std::map<std::string, double>& L = rep.layer;
      L["kv.memory_hit_pct"] =
          100.0 * Ratio(static_cast<double>(d1.memory_hits - d0.memory_hits),
                        gets);
      L["kv.block_reads_per_get"] = Ratio(
          static_cast<double>(d1.data_block_reads - d0.data_block_reads), gets);
      L["kv.compaction_bytes_per_put_byte"] = Ratio(
          static_cast<double>(
              (d1.compaction_read_bytes - d0.compaction_read_bytes) +
              (d1.compaction_write_bytes - d0.compaction_write_bytes)),
          puts * kValueBytes);
      L["kv.puts_per_wal_batch"] =
          Ratio(puts, static_cast<double>(d1.wal_writes - d0.wal_writes));
      L["kv.write_stalls"] =
          static_cast<double>(d1.write_stalls - d0.write_stalls);
      L["kv.blob_ios_per_op"] = Ratio(
          RegistryView(obs->metrics, bed.config().run_label)
              .Sum("policy.dispatched"),
          static_cast<double>(ops));
    }

    {
      Scope s(spans, "drain");
      for (auto& c : clients) c->Stop();
      DrainTestbed(bed);
    }
    rep.run_s = CpuSeconds() - t_run;
    rep.checks_ok = DrainedClean(bed);
    for (auto& c : clients) {
      const kv::YcsbClient::Stats& st = c->stats();
      if (st.reads + st.updates + st.inserts + st.rmws + st.scans != st.ops) {
        rep.checks_ok = Fail("kv client books: issued != resolved");
      }
    }
    return rep;
  }

 private:
  static constexpr int kSsds = 6;
  static constexpr int kOutstanding = 24;
  static constexpr uint32_t kValueBytes = 1024;

  static kv::KvDb::Stats DbTotals(kv::KvCluster& cluster) {
    kv::KvDb::Stats t;
    for (auto& inst : cluster.instances()) {
      const kv::KvDb::Stats& s = inst->db->stats();
      t.gets += s.gets;
      t.puts += s.puts;
      t.memory_hits += s.memory_hits;
      t.data_block_reads += s.data_block_reads;
      t.compaction_read_bytes += s.compaction_read_bytes;
      t.compaction_write_bytes += s.compaction_write_bytes;
      t.wal_writes += s.wal_writes;
      t.write_stalls += s.write_stalls;
    }
    return t;
  }

  int instances_;
  uint64_t records_;
  Tick warmup_;
  Tick measure_;
};

// fleet_churn: 2 clean SSDs and an OpenLoopFleet of thousands of seats —
// Pareto per-session rates, Poisson arrivals, 4 KiB reads, exponential
// session lifetimes — at one fixed offered rate.
class FleetChurn : public Workload {
 public:
  explicit FleetChurn(const Options& o)
      : seats_(o.tiny ? 400 : 4'000),
        warmup_(o.tiny ? Milliseconds(20) : Milliseconds(60)),
        measure_(o.tiny ? Milliseconds(40) : Milliseconds(250)) {}

  static TestbedConfig BedConfig() {
    return GimbalBed(2, SsdCondition::kClean, 512ull << 20, "fleet_churn");
  }

  Rep RunOnce(uint64_t seed, obs::Observability* obs,
              SpanLog& spans) override {
    Rep rep;
    TestbedConfig cfg = BedConfig();
    cfg.obs = obs;
    workload::FleetSpec spec;
    spec.sessions = seats_;
    spec.rates.dist = workload::RateDist::kPareto;
    spec.rates.mean_iops = kOfferedIops / static_cast<double>(seats_);
    spec.rates.max_multiple = 10.0;
    spec.io_bytes = 4096;
    spec.read_ratio = 1.0;
    spec.max_outstanding = 64;
    spec.session_lifetime_mean = Milliseconds(50);
    spec.rampup = Milliseconds(10);
    spec.seed = seed;
    spec.slo.read_p99 = kReadObjective;
    spec.slo.window = Milliseconds(10);

    const double heap0 = HeapInUseKib();
    const double t_setup = CpuSeconds();
    std::unique_ptr<Testbed> bed;
    std::unique_ptr<workload::OpenLoopFleet> fleet;
    {
      Scope s(spans, "testbed.build");  // includes SSD preconditioning
      bed = std::make_unique<Testbed>(cfg);
    }
    {
      Scope s(spans, "fleet.build");
      fleet = std::make_unique<workload::OpenLoopFleet>(*bed, spec);
    }
    rep.setup_s = CpuSeconds() - t_setup;

    const double t_run = CpuSeconds();
    {
      Scope s(spans, "window.warmup");
      fleet->Start();
      bed->sim().RunUntil(warmup_);
    }
    const workload::OpenLoopFleet::Totals t0 = fleet->TotalStats();
    const uint64_t connects0 = fleet->connects();
    const Mark a = OpenWindow(*bed, obs);
    {
      Scope s(spans, "window.measure");
      bed->sim().RunUntil(warmup_ + measure_);
    }
    const Mark b = TakeMark(*bed, obs);
    rep.measure_s = b.host - a.host;
    rep.events = b.events - a.events;
    const double heap1 = HeapInUseKib();

    const workload::OpenLoopFleet::Totals t1 = fleet->TotalStats();
    const uint64_t ios = t1.stats.total_ios() - t0.stats.total_ios();
    const uint64_t failed = t1.stats.failed_ios - t0.stats.failed_ios;
    const uint64_t shed = t1.dropped - t0.dropped;
    Window& w = rep.window;
    w.seconds = ToSec(measure_);
    w.ok = ios;
    w.failed = failed + shed;
    w.reads = t1.stats.read_latency.Subtract(t0.stats.read_latency);
    w.all = w.reads;  // reads are all the ops
    w.slo_over = static_cast<int64_t>(CountAbove(w.reads, kReadObjective));
    rep.ops = ios;
    if (obs) {
      CollectCommonLayers(*bed, *obs, a, b, ios, measure_, w.reads.mean(), rep);
      std::map<std::string, double>& L = rep.layer;
      L["fleet.connects"] = static_cast<double>(fleet->connects() - connects0);
      L["fleet.shed_pct"] = 100.0 * Ratio(static_cast<double>(shed),
                                          static_cast<double>(ios + w.failed));
    }
    rep.kib_per_seat = (heap1 - heap0) / static_cast<double>(seats_);

    {
      Scope s(spans, "drain");
      fleet->Stop();
      bed->sim().Run();
    }
    rep.run_s = CpuSeconds() - t_run;
    fleet->slo().FinalizeWindows();
    if (obs) {
      rep.layer["fleet.slo_windows_violated_pct"] =
          100.0 * Ratio(static_cast<double>(fleet->slo().windows_violated()),
                        static_cast<double>(fleet->slo().windows()));
    }
    rep.checks_ok = DrainedClean(*bed);
    if (fleet->SweepGraveyard() != 0 || fleet->active_sessions() != 0) {
      rep.checks_ok = Fail("fleet sessions left after drain");
    }
    return rep;
  }

 private:
  static constexpr double kOfferedIops = 240'000;
  static constexpr Tick kReadObjective = Milliseconds(1);

  uint64_t seats_;
  Tick warmup_;
  Tick measure_;
};

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  if (o.workload == "fio_frag_rw") return std::make_unique<FioFragRw>(o);
  if (o.workload == "kv_ycsb_a") return std::make_unique<KvYcsbA>(o);
  if (o.workload == "fleet_churn") return std::make_unique<FleetChurn>(o);
  return nullptr;
}

// --- Isolated layer drives ----------------------------------------------------

// Median host time per unit over `batches` runs of `fn`, which returns
// (seconds, units).
double MedianPerUnit(int batches, double scale,
                     const std::function<std::pair<double, double>()>& fn) {
  std::vector<double> v;
  for (int i = 0; i < batches; ++i) {
    const auto [secs, units] = fn();
    v.push_back(scale * Ratio(secs, units));
  }
  return Median(v);
}

// sim: EventQueue hold model — pop the earliest event, push it back at a
// random delay — with `pending` live events at the workload's density.
double QueueHoldNs(const Sizing& s) {
  const double mean_delay =
      std::max(1.0, static_cast<double>(s.pending) * s.event_gap_ns);
  return MedianPerUnit(3, 1e9, [&]() {
    sim::EventQueue q;
    Rng rng(7);
    auto delay = [&]() {
      return static_cast<Tick>(rng.NextExponential(mean_delay)) + 1;
    };
    for (size_t i = 0; i < s.pending; ++i) q.Push(delay(), []() {});
    const uint64_t kOps = 500'000;
    const double t0 = CpuSeconds();
    for (uint64_t i = 0; i < kOps; ++i) {
      Tick when = 0;
      sim::EventFn fn = q.Pop(&when);
      q.Push(when + delay(), std::move(fn));
    }
    return std::make_pair(CpuSeconds() - t0, static_cast<double>(kOps));
  });
}

void Precondition(ssd::Ssd& dev, SsdCondition cond) {
  if (cond == SsdCondition::kClean) {
    dev.PreconditionClean();
  } else {
    dev.PreconditionFragmented(3.0, 42);
  }
}

// ssd: time to precondition one SSD of the workload's config.
double PreconditionS(const Sizing& s) {
  return MedianPerUnit(3, 1.0, [&]() {
    sim::Simulator sim;
    ssd::Ssd dev(sim, s.bed.ssd);
    const double t0 = CpuSeconds();
    Precondition(dev, s.bed.condition);
    return std::make_pair(CpuSeconds() - t0, 1.0);
  });
}

// ssd: bare Ssd::Submit closed loop with the workload's read/write mix,
// command size and per-SSD outstanding count.
double SsdHostNsPerIo(const Sizing& s) {
  const int outstanding = static_cast<int>(std::lround(s.device_outstanding));
  return MedianPerUnit(3, 1e9, [&]() {
    sim::Simulator sim;
    ssd::Ssd dev(sim, s.bed.ssd);
    Precondition(dev, s.bed.condition);
    Rng rng(11);
    const uint64_t slots = dev.capacity_bytes() / s.io_bytes;
    const uint64_t kIos = 100'000;
    uint64_t issued = 0;
    std::function<void()> issue = [&]() {
      ssd::DeviceIo io;
      io.cookie = issued++;
      io.type = rng.NextDouble() < s.read_fraction ? IoType::kRead
                                                   : IoType::kWrite;
      io.offset = rng.NextBounded(slots) * s.io_bytes;
      io.length = s.io_bytes;
      dev.Submit(io, [&](const ssd::DeviceCompletion&) {
        if (issued < kIos) issue();
      });
    };
    const double t0 = CpuSeconds();
    for (int i = 0; i < outstanding; ++i) issue();
    sim.Run();
    return std::make_pair(CpuSeconds() - t0, static_cast<double>(issued));
  });
}

// core: DrrScheduler enqueue/dequeue/complete cycle with the workload's
// registered tenants, `active` of them backlogged.
double DrrDispatchNs(const Sizing& s) {
  const size_t active = std::max<size_t>(1, std::lround(s.drr_active));
  return MedianPerUnit(3, 1e9, [&]() {
    core::GimbalParams params;
    core::WriteCostEstimator cost(params);
    core::DrrScheduler drr(params, cost);
    for (size_t t = 1; t <= s.drr_registered; ++t) {
      drr.GetTenant(static_cast<TenantId>(t));
    }
    IoRequest req;
    req.type = IoType::kRead;
    req.length = 4096;
    uint64_t next_id = 1, done = 0;
    auto batch = [&]() {
      for (size_t a = 0; a < active; ++a) {
        req.tenant = static_cast<TenantId>(1 + a);
        req.id = next_id++;
        drr.Enqueue(req);
      }
      while (auto sch = drr.Dequeue()) {
        drr.OnCompletion(sch->req.tenant, sch->slot_id);
        ++done;
      }
    };
    batch();  // steady-state slot state before timing
    done = 0;
    const double t0 = CpuSeconds();
    while (done < 200'000) batch();
    return std::make_pair(CpuSeconds() - t0, static_cast<double>(done));
  });
}

// fabric: one capsule-connected session on the workload's testbed —
// MakeInitiator, disconnect, drain to idle.
double SessionCycleUs(const Sizing& s) {
  Testbed bed(s.bed);
  return MedianPerUnit(3, 1e6, [&]() {
    const int kCycles = 20'000;
    const double t0 = CpuSeconds();
    for (int i = 0; i < kCycles; ++i) {
      std::unique_ptr<fabric::Initiator> init = bed.MakeInitiator(
          i % s.bed.num_ssds, bed.AllocateTenantId(),
          fabric::ConnectMode::kCapsule);
      init->Shutdown();
      bed.sim().Run();
    }
    return std::make_pair(CpuSeconds() - t0, static_cast<double>(kCycles));
  });
}

// check: replay of one IO's valid hook sequence (client admit/issue,
// target admit, dispatch, device return, deliver, client terminal) through
// a standalone checker, rotating over the workload's tenants.
double CheckHookNs(const Sizing& s, bool* ok) {
  constexpr int kHooksPerIo = 7;
  const int ssds = s.bed.num_ssds;
  return MedianPerUnit(3, 1e9, [&]() {
    check::InvariantChecker chk(/*fail_fast=*/false);
    const uint64_t kIos = 200'000;
    const double t0 = CpuSeconds();
    for (uint64_t i = 0; i < kIos; ++i) {
      const TenantId t = static_cast<TenantId>(1 + i % s.tenants);
      const int ssd = static_cast<int>(t % static_cast<TenantId>(ssds));
      chk.OnClientAdmit(t, ssd, 1);
      chk.OnClientIssue(t, ssd, 0, 1, 8, false);
      chk.OnTargetAdmit(t, ssd);
      chk.OnPolicyDispatch(t, ssd);
      chk.OnDeviceReturn(t, ssd, true);
      chk.OnPolicyDeliver(t, ssd, true);
      chk.OnClientTerminal(t, ssd, true, true, 0);
    }
    const double secs = CpuSeconds() - t0;
    if (!chk.ok() || !chk.CheckDrained()) *ok = Fail("checker hook replay");
    return std::make_pair(secs, static_cast<double>(kIos * kHooksPerIo));
  });
}

// --- Metric catalogue -------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics BENCHMARK.json bounds: measured on every workload and
// never 0. The workload-specific ones are printed, not bounded; so are
// run_s and host_ops_per_s, whose run-to-run spread on a shared host is
// wider than any bound (README.md) — the traced run reports them as
// host.run_s and host.ops_per_s.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mib", "MiB"},
    {"model_kops", "kops/s"}, {"model_p50_us", "us"},
    {"model_p999_us", "us"},  {"model_read_p999_us", "us"},
};

const MetricSpec kPerLayer[] = {
    {"host.run_s", "s"},
    {"host.ops_per_s", "ops/s"},
    {"sim.events", "events"},
    {"sim.events_per_op", "events/op"},
    {"sim.ns_per_event", "ns"},
    {"sim.pending_events", "events"},
    {"sim.queue.hold_ns", "ns"},
    {"sim.inline_fn_heap_fallbacks", "count"},
    {"shard.epochs", "epochs"},
    {"shard.events_per_epoch", "events"},
    {"shard.idle_wakeups", "count"},
    {"ssd.precondition_s", "s"},
    {"ssd.host_ns_per_io", "ns"},
    {"ssd.device_p50_us", "us"},
    {"ssd.device_p99_us", "us"},
    {"ssd.gc_pages_per_write_page", "ratio"},
    {"ssd.buffer_hit_pct", "%"},
    {"core.wait_mean_us", "us"},
    {"core.pacing_stalls_per_kio", "events"},
    {"core.congestion_signals_per_kio", "events"},
    {"core.overload_events", "events"},
    {"core.write_cost", "ratio"},
    {"core.drr.dispatch_ns", "ns"},
    {"core.drr.pass_exhausted", "events"},
    {"fabric.wait_mean_us", "us"},
    {"fabric.bytes_per_op", "bytes"},
    {"fabric.session_cycle_us", "us"},
    {"fabric.retries", "count"},
    {"fabric.timeouts", "count"},
    {"fabric.late_completions", "count"},
    {"kv.bulkload_s", "s"},
    {"kv.memory_hit_pct", "%"},
    {"kv.block_reads_per_get", "reads"},
    {"kv.compaction_bytes_per_put_byte", "ratio"},
    {"kv.puts_per_wal_batch", "puts"},
    {"kv.write_stalls", "count"},
    {"kv.blob_ios_per_op", "IOs"},
    {"fleet.connects", "sessions"},
    {"fleet.shed_pct", "%"},
    {"fleet.rss_kib_per_seat", "KiB"},
    {"fleet.slo_windows_violated_pct", "%"},
    {"check.checks_per_op", "checks"},
    {"check.hook_ns", "ns"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.trace_events_per_op", "events"},
};

std::string HostLabel(const Options& o) {
  std::string out = "{\"hardware_threads\":" +
                    std::to_string(std::thread::hardware_concurrency());
  out += ",\"compiler\":" + obs::JsonQuote(PERFBENCH_COMPILER);
  out += ",\"build_type\":" + obs::JsonQuote(PERFBENCH_BUILD_TYPE);
  out += ",\"commit\":" + obs::JsonQuote(o.commit);
  out += ",\"workload\":" + obs::JsonQuote(o.workload);
  out += ",\"seed\":" + std::to_string(o.seed) + "}";
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--tiny") {
      o->tiny = true;
    } else if (a == "--workload") {
      if (!value(&o->workload)) return false;
    } else if (a == "--seed") {
      if (!value(&v)) return false;
      char* end = nullptr;
      o->seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (a == "--seconds") {
      if (!value(&v)) return false;
      o->seconds = std::atof(v.c_str());
      if (!(o->seconds > 0)) return false;
    } else if (a == "--trace") {
      if (!value(&v) || (v != "0" && v != "1")) return false;
      o->trace = v == "1";
    } else if (a == "--spans-out") {
      if (!value(&o->spans_out)) return false;
    } else if (a == "--commit") {
      if (!value(&o->commit)) return false;
    } else {
      return false;
    }
  }
  return !o->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fio_frag_rw|kv_ycsb_a|"
                 "fleet_churn --seed N --seconds S --trace 0|1 [--tiny] "
                 "[--spans-out PATH] [--commit SHA]\n");
    return 2;
  }
  std::unique_ptr<Workload> wl = MakeWorkload(opt);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const std::string host = HostLabel(opt);
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d%s\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
              opt.tiny ? " tiny" : "");
  std::printf("host %s\n", host.c_str());
  std::fflush(stdout);

  SpanLog spans;
  if (opt.trace) spans.Enable();
  wl->Prepare(spans);

  // Repeat until --seconds is spent, cycling the untraced repetitions
  // through the sub-seeds and running each at least once. The traced run
  // alternates untraced and traced repetitions of sub-seed 0, so both see
  // the same inputs and host conditions.
  std::vector<Rep> plain, traced;
  const int subs = opt.trace ? 1 : kSubSeeds;
  const Clock::time_point start = Clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  do {
    const int sub = static_cast<int>(plain.size()) % subs;
    {
      Scope s(spans, "rep.untraced");
      plain.push_back(wl->RunOnce(SubSeed(opt.seed, sub), nullptr, spans));
      plain.back().sub = sub;
    }
    if (opt.trace) {
      Scope s(spans, "rep.traced");
      obs::Observability obs;
      obs.tracer.Enable(1u << 18);
      traced.push_back(wl->RunOnce(SubSeed(opt.seed, 0), &obs, spans));
      traced.back().digest = obs.tracer.Digest();
    }
  } while (elapsed() < opt.seconds ||
           plain.size() < static_cast<size_t>(subs));

  // Correctness gate: every repetition checked itself; repetitions of one
  // sub-seed must agree bit for bit, in model values and trace digest.
  bool correct = true;
  std::vector<Rep*> all;
  for (Rep& r : plain) all.push_back(&r);
  for (Rep& r : traced) all.push_back(&r);
  for (Rep* r : all) {
    if (!r->checks_ok) correct = false;
    r->model = Summarize({&r->window});
    if (!(r->model == plain[static_cast<size_t>(r->sub)].model)) {
      correct = Fail("model values differ between repetitions of one seed");
    }
  }
  for (const Rep& r : traced) {
    if (r.digest != traced[0].digest) {
      correct = Fail("trace digest differs between traced repetitions");
    }
  }
  std::vector<const Window*> pooled;
  for (int i = 0; i < subs; ++i) pooled.push_back(&plain[i].window);
  const Model m = Summarize(pooled);
  if (opt.workload != "fleet_churn" && m.failed != 0) {
    correct = Fail("operations failed on a fault-free closed-loop workload");
  }
  if (m.attempted == 0 || m.kops <= 0) correct = Fail("no operations completed");

  uint64_t attempted = 0, failed = 0;
  for (const Rep& r : plain) {
    attempted += r.model.attempted;
    failed += r.model.failed;
  }

  auto median_of = [&](const std::vector<Rep>& reps,
                       const std::function<double(const Rep&)>& f) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(f(r));
    return Median(v);
  };
  const size_t n = plain.size();
  for (size_t i = 0; i < n; ++i) {
    const Rep& r = plain[i];
    std::printf("rep %zu sub=%d setup_s=%.6f run_s=%.6f measure_s=%.6f "
                "ops=%" PRIu64 " events=%" PRIu64 "\n",
                i, r.sub, r.setup_s, r.run_s, r.measure_s, r.ops, r.events);
  }
  const double run_s = median_of(plain, [](const Rep& r) { return r.run_s; });
  const double host_ops_per_s = median_of(plain, [](const Rep& r) {
    return Ratio(static_cast<double>(r.ops), r.measure_s);
  });
  std::map<std::string, double> metrics;
  if (!opt.trace) {
    // setup_s is the fastest set-up of the run: host speed on a shared VM
    // switches between regimes ~1.45x apart for seconds at a time, and a
    // run's median set-up flips with whichever regime held most of the run,
    // while its fastest needs just one repetition in the fast regime.
    double fastest_setup = plain[0].setup_s;
    for (const Rep& r : plain) fastest_setup = std::min(fastest_setup, r.setup_s);
    metrics["setup_s"] = fastest_setup;
    metrics["run_s"] = run_s;
    metrics["host_ops_per_s"] = host_ops_per_s;
    metrics["peak_rss_mib"] = PeakRssMib();
    metrics["model_kops"] = m.kops;
    metrics["model_p50_us"] = m.p50_us;
    metrics["model_p999_us"] = m.p999_us;
    metrics["model_read_p999_us"] = m.read_p999_us;

    std::printf("metric %-22s = %-14.6g %-6s (fastest of n=%zu reps; median "
                "%.6g)\n",
                "setup_s", fastest_setup, "s", n,
                median_of(plain, [](const Rep& r) { return r.setup_s; }));
    std::printf("metric %-22s = %-14.6g %-6s (median of n=%zu reps)\n",
                "run_s", run_s, "s", n);
    std::printf("metric %-22s = %-14.6g %-6s (median of n=%zu reps)\n",
                "host_ops_per_s", host_ops_per_s, "ops/s", n);
    std::printf("metric %-22s = %-14.6g %-6s (process peak)\n", "peak_rss_mib",
                metrics["peak_rss_mib"], "MiB");
    const double error_pct =
        100.0 * Ratio(static_cast<double>(m.failed),
                      static_cast<double>(m.attempted));
    std::printf("metric %-22s = %-14.6g %-6s (of %" PRIu64 " attempted)\n",
                "error_pct", error_pct, "%", m.attempted);
    auto model_line = [&](const char* name, double v, const char* unit) {
      if (v < 0) {
        std::printf("metric %-22s = n/a for this workload\n", name);
      } else {
        std::printf("metric %-22s = %-14.6g %-6s (model; %d sub-seed windows "
                    "pooled, every repeat identical)\n",
                    name, v, unit, subs);
      }
    };
    model_line("model_kops", m.kops, "kops/s");
    model_line("model_p50_us", m.p50_us, "us");
    model_line("model_p999_us", m.p999_us, "us");
    model_line("model_read_p999_us", m.read_p999_us, "us");
    model_line("model_write_p999_us", m.write_p999_us, "us");
    model_line("model_futil_min", m.futil_min, "ratio");
    model_line("model_slo_miss_pct", m.slo_miss_pct, "%");
  } else {
    const Rep& t = traced.back();
    metrics = t.layer;
    const Sizing& s = t.sizing;
    metrics["host.run_s"] = run_s;
    metrics["host.ops_per_s"] = host_ops_per_s;
    metrics["sim.ns_per_event"] = median_of(plain, [](const Rep& r) {
      return 1e9 * Ratio(r.measure_s, static_cast<double>(r.events));
    });
    // Untraced repetitions: the tracer's own buffers would count as the
    // workload's memory, and its overhead as the workload's time.
    if (plain[0].bulkload_s >= 0) {
      metrics["kv.bulkload_s"] =
          median_of(plain, [](const Rep& r) { return r.bulkload_s; });
    }
    if (plain[0].kib_per_seat >= 0) {
      metrics["fleet.rss_kib_per_seat"] =
          median_of(plain, [](const Rep& r) { return r.kib_per_seat; });
    }
    const double traced_run =
        median_of(traced, [](const Rep& r) { return r.run_s; });
    metrics["obs.trace_overhead_pct"] =
        100.0 * (Ratio(traced_run, run_s) - 1.0);
    {
      Scope s0(spans, "drive.sim.queue_hold");
      metrics["sim.queue.hold_ns"] = QueueHoldNs(s);
    }
    {
      Scope s0(spans, "drive.ssd.precondition");
      metrics["ssd.precondition_s"] = PreconditionS(s);
    }
    {
      Scope s0(spans, "drive.ssd.submit");
      metrics["ssd.host_ns_per_io"] = SsdHostNsPerIo(s);
    }
    {
      Scope s0(spans, "drive.core.drr");
      metrics["core.drr.dispatch_ns"] = DrrDispatchNs(s);
    }
    {
      Scope s0(spans, "drive.fabric.session_cycle");
      metrics["fabric.session_cycle_us"] = SessionCycleUs(s);
    }
    {
      Scope s0(spans, "drive.check.hooks");
      bool ok = true;
      metrics["check.hook_ns"] = CheckHookNs(s, &ok);
      if (!ok) correct = false;
    }
    std::printf("trace_digest %016" PRIx64 " (identical in all n=%zu traced "
                "reps)\n",
                traced[0].digest, traced.size());
    std::printf("drive sizes: pending=%zu event_gap_ns=%.1f read_fraction=%.3f "
                "io_bytes=%u device_outstanding=%.1f drr_registered=%zu "
                "drr_active=%.1f tenants=%zu\n",
                s.pending, s.event_gap_ns, s.read_fraction, s.io_bytes,
                s.device_outstanding, s.drr_registered, s.drr_active,
                s.tenants);
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = metrics.find(spec.name);
      if (it == metrics.end()) {
        // Layer not exercised by this workload (kv.* off kv_ycsb_a, fleet.*
        // off fleet_churn): reported as 0.
        metrics[spec.name] = 0;
        std::printf("layer  %-34s = n/a for this workload\n", spec.name);
      } else {
        std::printf("layer  %-34s = %-14.6g %s\n", spec.name, it->second,
                    spec.unit);
      }
    }
    if (!opt.spans_out.empty()) {
      std::FILE* f = std::fopen(opt.spans_out.c_str(), "w");
      const std::string json = spans.ToChromeJson(host);
      if (f == nullptr ||
          std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
        correct = Fail("could not write the span file");
      }
      if (f != nullptr) std::fclose(f);
      std::printf("spans written to %s\n", opt.spans_out.c_str());
    }
  }

  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(spec.name) + "\": {\"value\": " +
           Num(metrics[spec.name]) + ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (opt.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
