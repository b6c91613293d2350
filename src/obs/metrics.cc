#include "obs/metrics.h"

#include <cassert>
#include <cstdio>

#include "obs/json.h"

namespace gimbal::obs {

const char* MetricsRegistry::KindName(Kind k) {
  switch (k) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

MetricsRegistry::Instance& MetricsRegistry::Resolve(const MetricDef& def,
                                                    Labels labels, Kind kind) {
  Key key{def.name, run_, labels.tenant, labels.ssd};
  auto it = index_.find(key);
  if (it != index_.end()) {
    assert(it->second->kind == kind && "metric re-registered as another kind");
    return *it->second;
  }
  instances_.emplace_back();
  Instance& inst = instances_.back();
  inst.name = def.name;
  inst.unit = def.unit ? def.unit : "";
  inst.help = def.help ? def.help : "";
  inst.site = def.site ? def.site : "";
  inst.run = run_;
  inst.labels = labels;
  inst.kind = kind;
  index_.emplace(std::move(key), &inst);
  return inst;
}

Counter& MetricsRegistry::GetCounter(const MetricDef& def, Labels labels) {
  return Resolve(def, labels, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::GetGauge(const MetricDef& def, Labels labels) {
  return Resolve(def, labels, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::GetHistogram(const MetricDef& def, Labels labels) {
  return Resolve(def, labels, Kind::kHistogram).histogram;
}

void MetricsRegistry::ResetRun(const std::string& run) {
  for (Instance& inst : instances_) {
    if (inst.run != run) continue;
    // Gauges are point-in-time state (target rate, EWMA latency, write
    // cost); zeroing them would fake values until the next Set. Only the
    // accumulating kinds restart with the measurement window.
    inst.counter.Reset();
    inst.histogram.Reset();
  }
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& [key, inst] : index_) {
    (void)key;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":" + JsonQuote(inst->name);
    out += ",\"kind\":" + JsonQuote(KindName(inst->kind));
    out += ",\"unit\":" + JsonQuote(inst->unit);
    out += ",\"help\":" + JsonQuote(inst->help);
    out += ",\"site\":" + JsonQuote(inst->site);
    out += ",\"labels\":{";
    out += "\"run\":" + JsonQuote(inst->run);
    if (inst->labels.tenant >= 0) {
      out += ",\"tenant\":" + JsonNumber(inst->labels.tenant);
    } else if (inst->labels.tenant == Labels::kOtherTenant) {
      out += ",\"tenant\":\"other\"";
    }
    if (inst->labels.ssd >= 0) {
      out += ",\"ssd\":" + JsonNumber(inst->labels.ssd);
    }
    out += '}';
    switch (inst->kind) {
      case Kind::kCounter:
        out += ",\"value\":" +
               JsonNumber(static_cast<double>(inst->counter.value()));
        break;
      case Kind::kGauge:
        out += ",\"value\":" + JsonNumber(inst->gauge.value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = inst->histogram;
        out += ",\"count\":" + JsonNumber(static_cast<double>(h.count()));
        out += ",\"min\":" + JsonNumber(static_cast<double>(h.min()));
        out += ",\"mean\":" + JsonNumber(h.mean());
        out += ",\"p50\":" + JsonNumber(static_cast<double>(h.Quantile(0.50)));
        out += ",\"p95\":" + JsonNumber(static_cast<double>(h.Quantile(0.95)));
        out += ",\"p99\":" + JsonNumber(static_cast<double>(h.Quantile(0.99)));
        out +=
            ",\"p999\":" + JsonNumber(static_cast<double>(h.Quantile(0.999)));
        out += ",\"max\":" + JsonNumber(static_cast<double>(h.max()));
        break;
      }
    }
    out += '}';
  }
  out += "]}";
  return out;
}

namespace {
// CSV cells: quote only when needed (labels/help can contain commas).
std::string CsvCell(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}
}  // namespace

std::string MetricsRegistry::ToCsv() const {
  std::string out =
      "name,kind,unit,run,tenant,ssd,value,count,min,mean,p50,p95,p99,p999,"
      "max\n";
  for (const auto& [key, inst] : index_) {
    (void)key;
    out += CsvCell(inst->name);
    out += ',';
    out += KindName(inst->kind);
    out += ',';
    out += CsvCell(inst->unit);
    out += ',';
    out += CsvCell(inst->run);
    out += ',';
    if (inst->labels.tenant >= 0) {
      out += JsonNumber(inst->labels.tenant);
    } else if (inst->labels.tenant == Labels::kOtherTenant) {
      out += "other";
    }
    out += ',';
    if (inst->labels.ssd >= 0) out += JsonNumber(inst->labels.ssd);
    out += ',';
    switch (inst->kind) {
      case Kind::kCounter:
        out += JsonNumber(static_cast<double>(inst->counter.value()));
        out += ",,,,,,,,";
        break;
      case Kind::kGauge:
        out += JsonNumber(inst->gauge.value());
        out += ",,,,,,,,";
        break;
      case Kind::kHistogram: {
        const Histogram& h = inst->histogram;
        out += ',';  // no scalar value
        out += JsonNumber(static_cast<double>(h.count())) + ',';
        out += JsonNumber(static_cast<double>(h.min())) + ',';
        out += JsonNumber(h.mean()) + ',';
        out += JsonNumber(static_cast<double>(h.Quantile(0.50))) + ',';
        out += JsonNumber(static_cast<double>(h.Quantile(0.95))) + ',';
        out += JsonNumber(static_cast<double>(h.Quantile(0.99))) + ',';
        out += JsonNumber(static_cast<double>(h.Quantile(0.999))) + ',';
        out += JsonNumber(static_cast<double>(h.max()));
        break;
      }
    }
    out += '\n';
  }
  return out;
}

bool MetricsRegistry::WriteFile(const std::string& path) const {
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string body = csv ? ToCsv() : ToJson();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

}  // namespace gimbal::obs
