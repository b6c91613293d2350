// Tests for the observability layer (src/obs): MetricsRegistry semantics,
// label dimensions and serialization; EventTracer ordering, cap and
// exports; and an end-to-end drained testbed run asserting per-tenant
// admit == complete across the whole pipeline.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "obs/obs.h"
#include "obs/schema.h"
#include "sim/simulator.h"
#include "workload/runner.h"

namespace gimbal::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON validator: enough of RFC 8259 to certify exporter output is
// well-formed without pulling in a JSON library.
// ---------------------------------------------------------------------------
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!Digits()) return false;
    if (Peek() == '.') { ++pos_; if (!Digits()) return false; }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!Digits()) return false;
    }
    return pos_ > start;
  }

  bool Digits() {
    size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    size_t n = std::string::traits_type::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  size_t pos_ = 0;
};

constexpr MetricDef kTestCounter{"test.counter", "ios", "a counter", "here"};
constexpr MetricDef kTestGauge{"test.gauge", "bytes/s", "a gauge", "here"};
constexpr MetricDef kTestHist{"test.hist", "ns", "a histogram", "here"};

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------
TEST(MetricsRegistry, CounterSemantics) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter(kTestCounter);
  EXPECT_EQ(c.value(), 0u);
  c.Add(1);
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsRegistry, GaugeSemantics) {
  MetricsRegistry reg;
  Gauge& g = reg.GetGauge(kTestGauge);
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.Set(-1.0);  // gauges go down too
  EXPECT_EQ(g.value(), -1.0);
}

TEST(MetricsRegistry, HistogramSemantics) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram(kTestHist);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.99), 0);  // empty quantile is defined, not NaN/UB
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.5)), 500.0, 500 * 0.04);
}

TEST(MetricsRegistry, SameKeyReturnsSameInstance) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter(kTestCounter, Labels::TenantSsd(1, 0));
  Counter& b = reg.GetCounter(kTestCounter, Labels::TenantSsd(1, 0));
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, LabelDimensionsAreDistinctSeries) {
  MetricsRegistry reg;
  Counter& t1 = reg.GetCounter(kTestCounter, Labels::TenantSsd(1, 0));
  Counter& t2 = reg.GetCounter(kTestCounter, Labels::TenantSsd(2, 0));
  Counter& s1 = reg.GetCounter(kTestCounter, Labels::TenantSsd(1, 1));
  Counter& none = reg.GetCounter(kTestCounter);
  EXPECT_NE(&t1, &t2);
  EXPECT_NE(&t1, &s1);
  EXPECT_NE(&t1, &none);
  t1.Add(7);
  EXPECT_EQ(t2.value(), 0u);
  EXPECT_EQ(reg.size(), 4u);
}

TEST(MetricsRegistry, RunLabelSeparatesSeries) {
  MetricsRegistry reg;
  reg.set_run("a");
  Counter& ca = reg.GetCounter(kTestCounter);
  ca.Add(5);
  reg.set_run("b");
  Counter& cb = reg.GetCounter(kTestCounter);
  EXPECT_NE(&ca, &cb);
  EXPECT_EQ(cb.value(), 0u);
  EXPECT_EQ(ca.value(), 5u);
}

TEST(MetricsRegistry, ResetRunResetsCountersKeepsGauges) {
  MetricsRegistry reg;
  reg.set_run("warm");
  Counter& c = reg.GetCounter(kTestCounter);
  Gauge& g = reg.GetGauge(kTestGauge);
  Histogram& h = reg.GetHistogram(kTestHist);
  c.Add(10);
  g.Set(2.5);
  h.Record(100);
  reg.set_run("other");
  Counter& other = reg.GetCounter(kTestCounter);
  other.Add(3);

  reg.ResetRun("warm");
  EXPECT_EQ(c.value(), 0u);        // counter restarted
  EXPECT_EQ(h.count(), 0u);        // histogram restarted
  EXPECT_EQ(g.value(), 2.5);       // gauge keeps warmed-up state
  EXPECT_EQ(other.value(), 3u);    // other runs untouched
}

TEST(MetricsRegistry, JsonSnapshotIsValidAndComplete) {
  MetricsRegistry reg;
  reg.set_run("r \"quoted\",\n");  // hostile run label must be escaped
  reg.GetCounter(kTestCounter, Labels::TenantSsd(3, 1)).Add(12);
  reg.GetGauge(kTestGauge).Set(1.5e9);
  Histogram& h = reg.GetHistogram(kTestHist, Labels::Ssd(0));
  h.Record(1000);
  h.Record(2000);

  const std::string json = reg.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":12"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ssd\":1"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistry, JsonRoundTripPreservesValues) {
  // Round-trip the scalar values through the JSON text: every counter and
  // gauge value written out must be recoverable from the snapshot.
  MetricsRegistry reg;
  reg.GetCounter(kTestCounter, Labels::TenantSsd(1, 0)).Add(111);
  reg.GetCounter(kTestCounter, Labels::TenantSsd(2, 0)).Add(222);
  reg.GetGauge(kTestGauge).Set(1234.5);
  const std::string json = reg.ToJson();
  ASSERT_TRUE(JsonChecker(json).Valid());

  auto value_after = [&](const std::string& anchor) {
    size_t at = json.find(anchor);
    EXPECT_NE(at, std::string::npos) << anchor;
    size_t v = json.find("\"value\":", at);
    return std::stod(json.substr(v + 8));
  };
  EXPECT_EQ(value_after("\"tenant\":1"), 111.0);
  EXPECT_EQ(value_after("\"tenant\":2"), 222.0);
  EXPECT_EQ(value_after("\"test.gauge\""), 1234.5);
}

TEST(MetricsRegistry, CsvSnapshotHasHeaderAndRows) {
  MetricsRegistry reg;
  reg.GetCounter(kTestCounter, Labels::Ssd(0)).Add(9);
  reg.GetHistogram(kTestHist).Record(50);
  const std::string csv = reg.ToCsv();
  std::istringstream in(csv);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "name,kind,unit,run,tenant,ssd,value,count,min,mean,p50,p95,p99,"
            "p999,max");
  int rows = 0;
  for (std::string line; std::getline(in, line);) ++rows;
  EXPECT_EQ(rows, 2);
  EXPECT_NE(csv.find("test.counter,counter,ios,"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EventTracer
// ---------------------------------------------------------------------------
TEST(EventTracer, DisabledRecordsNothing) {
  EventTracer tr;
  EXPECT_FALSE(tr.enabled());
  tr.Instant(100, "x", Labels::Ssd(0), {{"a", 1.0}});
  tr.Span(100, 50, "y", Labels::TenantSsd(1, 0));
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(EventTracer, RecordsInCallOrderWithCallerTimestamps) {
  EventTracer tr;
  tr.Enable();
  tr.Instant(10, "a", Labels::Ssd(0));
  tr.Instant(20, "b", Labels::Ssd(0));
  tr.Instant(30, "c", Labels::TenantSsd(7, 0), {{"k", 3.0}});
  ASSERT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.events()[0].ts, 10);
  EXPECT_EQ(tr.events()[1].ts, 20);
  EXPECT_EQ(tr.events()[2].ts, 30);
  EXPECT_STREQ(tr.events()[2].name, "c");
  EXPECT_EQ(tr.events()[2].labels.tenant, 7);
  EXPECT_EQ(tr.events()[2].nargs, 1u);
  EXPECT_EQ(tr.events()[2].args[0].value, 3.0);
}

TEST(EventTracer, OrderMatchesSimulatedTime) {
  // Events recorded from simulator callbacks carry sim::now() timestamps,
  // so the recorded sequence is nondecreasing in simulated time.
  sim::Simulator sim;
  EventTracer tr;
  tr.Enable();
  for (Tick t : {Tick(500), Tick(100), Tick(300)}) {
    sim.After(t, [&]() { tr.Instant(sim.now(), "tick", Labels::Ssd(0)); });
  }
  sim.Run();
  ASSERT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.events()[0].ts, 100);
  EXPECT_EQ(tr.events()[1].ts, 300);
  EXPECT_EQ(tr.events()[2].ts, 500);
}

TEST(EventTracer, CapDropsAndCounts) {
  EventTracer tr;
  tr.Enable(/*limit=*/4);
  for (int i = 0; i < 10; ++i) tr.Instant(i, "e", Labels::Ssd(0));
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.dropped(), 6u);
  const std::string json = tr.ToChromeJson();
  EXPECT_NE(json.find("\"dropped_events\":6"), std::string::npos);
}

TEST(EventTracer, ChromeJsonIsValidAndTracksNamed) {
  EventTracer tr;
  tr.Enable();
  tr.Instant(1000, "io.admit", Labels::TenantSsd(2, 1), {{"bytes", 4096.0}});
  tr.Span(2000, 500, "io.complete", Labels::TenantSsd(2, 1));
  const std::string json = tr.ToChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ssd 1\""), std::string::npos);     // process name
  EXPECT_NE(json.find("\"tenant 2\""), std::string::npos);  // thread name
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
}

TEST(EventTracer, JsonlOneValidObjectPerLine) {
  EventTracer tr;
  tr.Enable();
  tr.Instant(100, "a", Labels::TenantSsd(1, 0), {{"x", 1.5}});
  tr.Span(200, 50, "b", Labels::Ssd(0));
  std::istringstream in(tr.ToJsonl());
  int lines = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
  }
  EXPECT_EQ(lines, 2);
}

TEST(EventTracer, ClearForgetsEverything) {
  EventTracer tr;
  tr.Enable(2);
  tr.Instant(1, "a", Labels::Ssd(0));
  tr.Instant(2, "b", Labels::Ssd(0));
  tr.Instant(3, "c", Labels::Ssd(0));
  EXPECT_EQ(tr.dropped(), 1u);
  tr.Clear();
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: a drained multi-tenant testbed run must balance its books —
// for every tenant, target admits == policy completions == client
// completions, and the trace contains exactly one io.admit per admit.
// ---------------------------------------------------------------------------
TEST(ObservabilityE2E, DrainedRunBalancesAdmitsAndCompletes) {
  Observability obs;
  obs.tracer.Enable();
  workload::TestbedConfig cfg;
  cfg.scheme = workload::Scheme::kGimbal;
  cfg.ssd.logical_bytes = 128ull << 20;
  cfg.obs = &obs;
  cfg.run_label = "e2e";
  workload::Testbed bed(cfg);
  for (int i = 0; i < 3; ++i) {
    workload::FioSpec spec;
    spec.io_bytes = 4096;
    spec.read_ratio = i == 2 ? 0.0 : 1.0;  // two readers, one writer
    spec.queue_depth = 8;
    spec.seed = static_cast<uint64_t>(i) + 1;
    bed.AddWorker(spec);
  }
  // No warmup: counters cover the whole run, then stop issuing and drain
  // every in-flight IO so admits and completions must balance exactly.
  bed.Run(/*warmup=*/0, Milliseconds(50));
  for (auto& w : bed.workers()) w->Stop();
  bed.sim().Run();

  namespace schema = gimbal::obs::schema;
  std::map<int32_t, uint64_t> admits_in_trace;
  for (const auto& ev : obs.tracer.events()) {
    if (std::string(ev.name) == schema::kEvAdmit) {
      ++admits_in_trace[ev.labels.tenant];
    }
  }
  ASSERT_EQ(obs.tracer.dropped(), 0u);

  uint64_t total = 0;
  for (int32_t tenant = 1; tenant <= 3; ++tenant) {
    const Labels l = Labels::TenantSsd(tenant, 0);
    uint64_t admitted =
        obs.metrics.GetCounter(schema::kTargetAdmitted, l).value();
    uint64_t dispatched =
        obs.metrics.GetCounter(schema::kPolicyDispatched, l).value();
    uint64_t completed =
        obs.metrics.GetCounter(schema::kPolicyCompleted, l).value();
    uint64_t client =
        obs.metrics.GetCounter(schema::kClientCompleted, l).value();
    EXPECT_GT(admitted, 0u) << "tenant " << tenant;
    EXPECT_EQ(admitted, dispatched) << "tenant " << tenant;
    EXPECT_EQ(admitted, completed) << "tenant " << tenant;
    EXPECT_EQ(admitted, client) << "tenant " << tenant;
    EXPECT_EQ(admitted, admits_in_trace[tenant]) << "tenant " << tenant;
    // The worker's own accounting agrees with the client-side metric.
    EXPECT_EQ(client, bed.workers()[static_cast<size_t>(tenant - 1)]
                          ->stats()
                          .total_ios());
    total += admitted;
  }
  // Latency histograms saw every completion.
  uint64_t hist_count = 0;
  for (int32_t tenant = 1; tenant <= 3; ++tenant) {
    hist_count += obs.metrics
                      .GetHistogram(schema::kDeviceLatency,
                                    Labels::TenantSsd(tenant, 0))
                      .count();
  }
  EXPECT_EQ(hist_count, total);
}

TEST(ObservabilityE2E, UnattachedTestbedEmitsNothing) {
  Observability obs;  // exists but is never attached
  workload::TestbedConfig cfg;
  cfg.scheme = workload::Scheme::kGimbal;
  cfg.ssd.logical_bytes = 128ull << 20;
  workload::Testbed bed(cfg);
  workload::FioSpec spec;
  spec.io_bytes = 4096;
  spec.queue_depth = 8;
  bed.AddWorker(spec);
  bed.Run(0, Milliseconds(10));
  EXPECT_GT(bed.workers()[0]->stats().total_ios(), 0u);
  EXPECT_EQ(obs.metrics.size(), 0u);
  EXPECT_EQ(obs.tracer.size(), 0u);
}

}  // namespace
}  // namespace gimbal::obs
