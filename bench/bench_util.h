// Shared helpers of gimbal_figs and its figures.
#pragma once

#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/time.h"
#include "kv/cluster.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/schema.h"
#include "workload/fio.h"
#include "workload/report.h"
#include "workload/runner.h"

namespace gimbal::bench {

using workload::FioSpec;
using workload::FioWorker;
using workload::Scheme;
using workload::SsdCondition;
using workload::Table;
using workload::Testbed;
using workload::TestbedConfig;

// Observability sinks shared by every testbed the figure builds, or nullptr
// when the user asked for no machine-readable output (the default — the
// tracer's and registry's hot paths then cost one branch each).
inline obs::Observability* g_obs = nullptr;

inline obs::Observability* CurrentObs() { return g_obs; }

// --quick: shrink the run matrix/windows so the figure finishes in seconds
// (the golden-figure regression configs — docs/TESTING.md). Each figure
// decides what "quick" means for its own matrix; trends must survive, exact
// paper numbers need the full run.
inline bool g_quick = false;
inline bool Quick() { return g_quick; }

// --seed=N: shift every workload RNG seed so the same figure can be
// replayed under fresh randomness (golden runs pin the default).
inline uint64_t g_seed = 0;

// Fault-plan knobs of the fault figures (docs/FAULTS.md). A figure
// registers its defaults (RegisterFigure), and ObsSession parses
// --fault-media-p=P and --fault-seed=N, plus --fault-stall-ms=N and
// --fault-link-drop=P where the figure gives those knobs a default.
struct FaultKnobs {
  double media_p = 0.2;  // media-error probability per IO in the burst
  uint64_t seed = 1;     // fault RNG seed
  std::optional<double> stall_ms;   // extra device latency during a stall
  std::optional<double> link_drop;  // message drop probability in a flap
};

// One figure of gimbal_figs. Each figure source registers one, named by its
// file stem, at namespace scope:
//
//   int Run() { ...print the figure...; return 0; }
//   const RegisterFigure kFigure(__FILE__, Run);
//
// `run` returns the exit code: non-zero when a self-check failed. A figure
// with --fault-* knobs registers `int Run(const FaultKnobs&)` and its
// defaults instead.
struct Figure {
  std::string name;
  std::optional<FaultKnobs> knobs;  // --fault-* defaults, if it takes any
  std::function<int(const FaultKnobs&)> run;
};

inline std::vector<Figure>& Figures() {
  static std::vector<Figure> figures;
  return figures;
}

struct RegisterFigure {
  RegisterFigure(const char* file, int (*run)()) {
    Figures().push_back(
        {Stem(file), std::nullopt, [run](const FaultKnobs&) { return run(); }});
  }
  RegisterFigure(const char* file, int (*run)(const FaultKnobs&),
                 const FaultKnobs& defaults) {
    Figures().push_back({Stem(file), defaults, run});
  }

  // "path/to/fig04_interference.cpp" -> "fig04_interference".
  static std::string Stem(const std::string& path) {
    const size_t begin = path.find_last_of('/') + 1;
    return path.substr(begin, path.find_last_of('.') - begin);
  }
};

// A self-check a figure certifies its run with (printed PASS or FAIL).
struct Check {
  std::string name;
  bool pass;
};

// Where ReportChecks records checks for --bench-json; set by ObsSession.
inline std::vector<Check>* g_check_log = nullptr;

// Prints a blank line, then one "%-60s PASS|FAIL" line per check, records
// the checks for --bench-json, and returns whether every check passed.
inline bool ReportChecks(const std::vector<Check>& checks) {
  bool all = true;
  std::printf("\n");
  for (const Check& c : checks) {
    all = all && c.pass;
    std::printf("%-60s %s\n", c.name.c_str(), c.pass ? "PASS" : "FAIL");
    if (g_check_log != nullptr) g_check_log->push_back(c);
  }
  return all;
}

// Strict flag-value parsers: the whole text must parse, or the value is
// left untouched and false is returned.
inline bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;  // no sign
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

// Accepts a finite number in [lo, hi].
inline bool ParseDouble(const std::string& s, double lo, double hi,
                        double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || !(v >= lo && v <= hi)) return false;
  *out = v;
  return true;
}

// Per-run session: the one argv parser and the one machine-readable result
// writer of every figure. gimbal_figs constructs it from the flags it does
// not consume itself, then runs the figure:
//
//   ObsSession session(figure.name, args, &knobs);
//   return figure.run(knobs);
//
// Flags (see docs/OBSERVABILITY.md):
//   --metrics-out=PATH   write the final metrics snapshot (.csv => CSV,
//                        anything else => JSON)
//   --trace-out=PATH     enable the event tracer and write the trace
//                        (.jsonl => compact JSONL, anything else =>
//                        chrome://tracing JSON)
//   --trace-limit=N      cap the trace at N events (default 1M); events
//                        past the cap are counted, not stored
//   --bench-json=PATH    write every table the figure printed and every
//                        self-check it reported as JSON; attaches no
//                        observability
//
// Regression-harness flags (docs/TESTING.md):
//   --quick              shrink the figure to its golden-figure quick config
//   --seed=N             shift workload RNG seeds by N (default 0)
//   --digest-out=PATH    enable the tracer and write its FNV digest as
//                        16 hex chars; bit-identical across runs for the
//                        same config
//
// Given `faults`, the session also parses that figure's --fault-* knobs. A
// malformed value is rejected with a warning and the default kept. Files
// are written when the session goes out of scope, after the figure ran.
class ObsSession {
 public:
  ObsSession(std::string bench, const std::vector<std::string>& args,
             FaultKnobs* faults = nullptr)
      : bench_(std::move(bench)) {
    for (const std::string& a : args) {
      std::string v;
      if (TakeValue(a, "--metrics-out=", &metrics_path_)) continue;
      if (TakeValue(a, "--trace-out=", &trace_path_)) continue;
      if (TakeValue(a, "--digest-out=", &digest_path_)) continue;
      if (TakeValue(a, "--bench-json=", &bench_json_path_)) continue;
      if (a == "--quick") {
        g_quick = true;
        continue;
      }
      if (TakeValue(a, "--seed=", &v)) {
        if (!ParseU64(v, &g_seed)) {
          Reject("--seed", v, std::to_string(g_seed));
        }
        continue;
      }
      if (TakeValue(a, "--trace-limit=", &v)) {
        uint64_t n = 0;
        if (ParseU64(v, &n) && n > 0) {
          trace_limit_ = n;
        } else {
          Reject("--trace-limit", v, std::to_string(trace_limit_));
        }
        continue;
      }
      if (faults != nullptr && ParseFaultFlag(a, faults)) continue;
      std::fprintf(stderr, "warning: ignoring unknown flag '%s'\n", a.c_str());
    }
    if (!bench_json_path_.empty()) {
      workload::SetPrintLog(&tables_);
      g_check_log = &checks_;
    }
    if (metrics_path_.empty() && trace_path_.empty() && digest_path_.empty()) {
      return;
    }
    if (!digest_path_.empty() && trace_limit_ < (4u << 20)) {
      // The digest must cover every event a quick run emits; a truncated
      // trace would hash differently depending on unrelated flag order.
      trace_limit_ = 4u << 20;
    }
    if (!trace_path_.empty() || !digest_path_.empty()) {
      obs_.tracer.Enable(trace_limit_);
    }
    g_obs = &obs_;
  }

  ~ObsSession() {
    if (g_obs == &obs_) g_obs = nullptr;
    if (!bench_json_path_.empty()) {
      workload::SetPrintLog(nullptr);
      g_check_log = nullptr;
      WriteBenchJson();
    }
    if (!metrics_path_.empty()) {
      WriteOut(metrics_path_, obs_.metrics.WriteFile(metrics_path_));
    }
    if (!trace_path_.empty()) {
      WriteOut(trace_path_, obs_.tracer.WriteFile(trace_path_));
    }
    if (!digest_path_.empty()) {
      if (obs_.tracer.dropped() > 0) {
        std::fprintf(stderr,
                     "error: trace overflowed (%zu dropped); digest of a "
                     "truncated trace is meaningless — raise --trace-limit\n",
                     obs_.tracer.dropped());
      }
      std::FILE* f = std::fopen(digest_path_.c_str(), "w");
      if (!f) {
        WriteOut(digest_path_, false);
      } else {
        std::fprintf(f, "%016" PRIx64 "\n", obs_.tracer.Digest());
        std::fclose(f);
      }
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  obs::Observability* obs() { return g_obs; }

 private:
  static bool TakeValue(const std::string& arg, const char* prefix,
                        std::string* out) {
    const size_t n = std::string::traits_type::length(prefix);
    if (arg.compare(0, n, prefix) != 0) return false;
    *out = arg.substr(n);
    return true;
  }

  static void Reject(const char* flag, const std::string& value,
                     const std::string& kept) {
    std::fprintf(stderr, "warning: bad %s '%s', keeping %s\n", flag,
                 value.c_str(), kept.c_str());
  }

  static std::string Fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
  }

  // Consumes one --fault-* flag into `k`; false if `arg` is not one.
  static bool ParseFaultFlag(const std::string& arg, FaultKnobs* k) {
    std::string v;
    if (TakeValue(arg, "--fault-media-p=", &v)) {
      if (!ParseDouble(v, 0, 1, &k->media_p)) {
        Reject("--fault-media-p", v, Fmt(k->media_p));
      }
    } else if (TakeValue(arg, "--fault-seed=", &v)) {
      if (!ParseU64(v, &k->seed)) {
        Reject("--fault-seed", v, std::to_string(k->seed));
      }
    } else if (k->stall_ms && TakeValue(arg, "--fault-stall-ms=", &v)) {
      if (!ParseDouble(v, 0, 1e6, &*k->stall_ms)) {
        Reject("--fault-stall-ms", v, Fmt(*k->stall_ms));
      }
    } else if (k->link_drop && TakeValue(arg, "--fault-link-drop=", &v)) {
      if (!ParseDouble(v, 0, 1, &*k->link_drop)) {
        Reject("--fault-link-drop", v, Fmt(*k->link_drop));
      }
    } else {
      return false;
    }
    return true;
  }

  // {"bench", "mode", "hardware_threads", "tables", "checks"}; the shape is
  // documented in docs/OBSERVABILITY.md.
  void WriteBenchJson() const {
    std::vector<std::string> tables;
    for (const Table& t : tables_) tables.push_back(t.ToJson());
    std::vector<std::string> checks;
    for (const Check& c : checks_) {
      checks.push_back("{\"name\": " + obs::JsonQuote(c.name) +
                       ", \"pass\": " + (c.pass ? "true" : "false") + "}");
    }
    const std::string out =
        "{\n  \"bench\": " + obs::JsonQuote(bench_) + ",\n  \"mode\": \"" +
        (Quick() ? "quick" : "full") + "\",\n  \"hardware_threads\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ",\n  \"tables\": " + JsonList(tables) +
        ",\n  \"checks\": " + JsonList(checks) + "\n}\n";
    std::FILE* f = std::fopen(bench_json_path_.c_str(), "w");
    bool ok =
        f != nullptr && std::fwrite(out.data(), 1, out.size(), f) == out.size();
    if (f != nullptr && std::fclose(f) != 0) ok = false;
    WriteOut(bench_json_path_, ok);
  }

  // A JSON array of already-serialized items, one per line.
  static std::string JsonList(const std::vector<std::string>& items) {
    if (items.empty()) return "[]";
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
      out += (i > 0 ? ",\n    " : "\n    ") + items[i];
    }
    return out + "\n  ]";
  }

  static void WriteOut(const std::string& path, bool ok) {
    if (!ok) {
      std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    }
  }

  obs::Observability obs_;
  std::string bench_;
  std::string metrics_path_;
  std::string trace_path_;
  std::string digest_path_;
  std::string bench_json_path_;
  uint64_t trace_limit_ = obs::EventTracer::kDefaultLimit;
  std::vector<Table> tables_;
  std::vector<Check> checks_;
};

// Bandwidth in MB/s a worker achieved over the measurement window.
inline double WorkerMBps(FioWorker& w, Tick window) {
  return BytesToMiB(w.stats().total_bytes()) / ToSec(window);
}

inline double AggregateMBps(Testbed& bed) {
  uint64_t bytes = 0;
  for (auto& w : bed.workers()) bytes += w->stats().total_bytes();
  return BytesToMiB(bytes) / ToSec(bed.measured());
}

// Adds `n` workers running `spec`; worker i draws from seed
// first_seed + i + --seed.
inline void AddWorkers(Testbed& bed, FioSpec spec, int n, uint64_t first_seed) {
  for (int i = 0; i < n; ++i) {
    spec.seed = first_seed + static_cast<uint64_t>(i) + g_seed;
    bed.AddWorker(spec);
  }
}

// Bytes moved by the workers [first, first + count) in the measured window.
inline uint64_t WorkerBytes(Testbed& bed, size_t first, size_t count) {
  uint64_t bytes = 0;
  for (size_t i = first; i < first + count; ++i) {
    bytes += bed.workers()[i]->stats().total_bytes();
  }
  return bytes;
}

// Merge latency histograms of a worker subset by IO type.
inline LatencyHistogram MergedLatency(Testbed& bed, IoType type,
                                      size_t first = 0,
                                      size_t count = SIZE_MAX) {
  LatencyHistogram all;
  auto& ws = bed.workers();
  for (size_t i = first; i < ws.size() && i - first < count; ++i) {
    all.Merge(type == IoType::kRead ? ws[i]->stats().read_latency
                                    : ws[i]->stats().write_latency);
  }
  return all;
}

// Default testbed for the microbenchmarks (§5.1-like): one SSD behind a
// SmartNIC target. Logical capacity is scaled so preconditioning stays
// cheap; all bandwidth targets are capacity-independent.
inline TestbedConfig MicroConfig(Scheme scheme, SsdCondition cond) {
  TestbedConfig cfg;
  cfg.scheme = scheme;
  cfg.condition = cond;
  cfg.ssd.logical_bytes = 512ull << 20;
  cfg.obs = CurrentObs();
  return cfg;
}

// The paper's fio defaults (§5.1): QD 4 for 128 KiB, QD 32 for 4 KiB;
// reads random; 128 KiB writes sequential, 4 KiB writes random.
inline FioSpec PaperSpec(uint32_t io_bytes, bool is_write, uint64_t seed) {
  FioSpec s;
  s.io_bytes = io_bytes;
  s.read_ratio = is_write ? 0.0 : 1.0;
  s.queue_depth = io_bytes >= 128 * 1024 ? 4 : 32;
  s.sequential = is_write && io_bytes >= 128 * 1024;
  s.seed = seed + g_seed;
  return s;
}

// The KV cluster every KV figure builds: `ssds` 256 MiB SSDs in
// `condition`, one target core per SSD, and per instance a 256 MiB blob
// backend and a 1 MiB memtable. `label` names the run in the metrics.
inline kv::KvClusterConfig KvConfig(Scheme scheme, int ssds,
                                    SsdCondition condition,
                                    std::string label) {
  kv::KvClusterConfig cfg;
  cfg.testbed.scheme = scheme;
  cfg.testbed.num_ssds = ssds;
  cfg.testbed.target.cores = ssds;
  cfg.testbed.condition = condition;
  cfg.testbed.ssd.logical_bytes = 256ull << 20;
  cfg.testbed.obs = CurrentObs();
  cfg.testbed.run_label = std::move(label);
  cfg.hba.backend_bytes = 256ull << 20;
  cfg.db.memtable_bytes = 1ull << 20;
  return cfg;
}

// Replication totals over a KV cell's instances, read after its drain.
struct ReplicaTotals {
  uint64_t failover_reads = 0;
  uint64_t degraded_writes = 0;
  uint64_t dirty_recorded = 0;
  uint64_t dirty_repaired = 0;
  uint64_t dirty_dropped = 0;
  uint64_t rebuild_bytes = 0;
  // Writes acked with no durable copy: the `kv.ack.lost` violations the
  // cell's checker recorded (a fail-fast checker aborts on the first).
  uint64_t lost_writes = 0;
  size_t dirty_pending = 0;  // dirty-ledger entries left
};

// A KV-YCSB cell: a KvCluster of `instances` instances, each bulk-loaded
// with `records` 1 KiB records and driven by one YCSB client with
// `concurrency` ops in flight. Client i draws from seed i + 1 + --seed.
class KvYcsbCell {
 public:
  KvYcsbCell(const kv::KvClusterConfig& cfg, workload::YcsbWorkload wl,
             int instances, uint64_t records, int concurrency)
      : cluster_(cfg), label_(cfg.testbed.run_label) {
    for (int i = 0; i < instances; ++i) {
      auto& inst = cluster_.AddInstance();
      inst.db->BulkLoad(records, 1024);
      workload::YcsbSpec spec;
      spec.workload = wl;
      spec.record_count = records;
      spec.seed = static_cast<uint64_t>(i) + 1 + g_seed;
      clients_.push_back(std::make_unique<kv::YcsbClient>(
          cluster_.sim(), *inst.db, spec, concurrency));
    }
  }

  // Starts the clients and runs to `end`, then restarts the client stats
  // and the run's metrics, so that only what follows is measured.
  void Warmup(Tick end) {
    for (auto& c : clients_) c->Start();
    sim().RunUntil(end);
    for (auto& c : clients_) c->stats().Reset();
    if (auto* obs = CurrentObs()) obs->metrics.ResetRun(label_);
  }

  // Runs `window` past now.
  void RunFor(Tick window) { sim().RunUntil(sim().now() + window); }

  uint64_t Ops() const {
    uint64_t ops = 0;
    for (const auto& c : clients_) ops += c->stats().ops;
    return ops;
  }

  LatencyHistogram Reads() const {
    LatencyHistogram reads;
    for (const auto& c : clients_) reads.Merge(c->stats().read_latency);
    return reads;
  }

  // Dirty-ledger entries (replicas awaiting re-replication), all instances.
  size_t DirtyPending() {
    size_t pending = 0;
    for (auto& inst : cluster_.instances()) {
      pending += inst->blobs->dirty_count();
    }
    return pending;
  }

  ReplicaTotals Replicas() {
    ReplicaTotals t;
    for (const auto& inst : cluster_.instances()) {
      const auto& bs = inst->blobs->stats();
      t.failover_reads += bs.failover_reads;
      t.degraded_writes += bs.degraded_writes;
      t.dirty_recorded += bs.dirty_recorded;
      t.dirty_repaired += bs.dirty_repaired;
      t.dirty_dropped += bs.dirty_dropped;
      t.rebuild_bytes += bs.rebuild_bytes;
    }
    for (const auto& v : cluster_.bed().checker().violations()) {
      if (v.invariant == "kv.ack.lost") ++t.lost_writes;
    }
    t.dirty_pending = DirtyPending();
    return t;
  }

  // Stops the clients and runs `span` more in `step`s, calling `each_step`
  // after each, then shuts every initiator down and runs the simulation
  // until no event is left.
  void Drain(Tick span, Tick step, const std::function<void()>& each_step) {
    for (auto& c : clients_) c->Stop();
    const Tick end = sim().now() + span;
    while (sim().now() < end) {
      RunFor(step);
      each_step();
    }
    for (auto& ini : cluster_.bed().initiators()) {
      if (!ini->shutdown()) ini->Shutdown();
    }
    sim().Run();
  }

  kv::KvCluster& cluster() { return cluster_; }
  sim::Simulator& sim() { return cluster_.sim(); }
  kv::KvCluster::Instance& instance(int i) {
    return *cluster_.instances()[static_cast<size_t>(i)];
  }
  kv::YcsbClient& client(int i) { return *clients_[static_cast<size_t>(i)]; }

 private:
  kv::KvCluster cluster_;
  std::string label_;
  std::vector<std::unique_ptr<kv::YcsbClient>> clients_;
};

}  // namespace gimbal::bench
