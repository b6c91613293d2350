#include "workload/report.h"

#include <algorithm>
#include <regex>

#include "obs/json.h"

namespace gimbal::workload {

namespace {

std::vector<Table>* g_print_log = nullptr;

bool IsJsonNumber(const std::string& s) {
  static const std::regex kNumber(
      R"(-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?)");
  return std::regex_match(s, kNumber);
}

std::string JsonStrings(const std::vector<std::string>& v, bool numbers) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += numbers && IsJsonNumber(v[i]) ? v[i] : obs::JsonQuote(v[i]);
  }
  return out + "]";
}

}  // namespace

void SetPrintLog(std::vector<Table>* log) { g_print_log = log; }

Table& Table::Columns(std::vector<std::string> names) {
  columns_ = std::move(names);
  return *this;
}

Table& Table::Row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::MBps(double bytes_per_sec) {
  return Num(bytes_per_sec / (1024.0 * 1024.0), 1);
}

std::string Table::Us(double ns) { return Num(ns / 1000.0, 1); }

std::string Table::ToJson() const {
  std::string out = "{\"title\": " + obs::JsonQuote(title_) +
                    ", \"columns\": " + JsonStrings(columns_, false) +
                    ", \"rows\": [";
  for (size_t i = 0; i < rows_.size(); ++i) {
    out += i > 0 ? ",\n      " : "\n      ";
    out += JsonStrings(rows_[i], true);
  }
  return out + "]}";
}

void Table::Print() const {
  if (g_print_log != nullptr) g_print_log->push_back(*this);
  std::vector<size_t> widths(columns_.size(), 0);
  for (size_t i = 0; i < columns_.size(); ++i) widths[i] = columns_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::printf("\n-- %s\n", title_.c_str());
  for (size_t i = 0; i < columns_.size(); ++i) {
    std::printf("%-*s  ", static_cast<int>(widths[i]), columns_[i].c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < columns_.size(); ++i) {
    std::printf("%s  ", std::string(widths[i], '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(widths[i]), row[i].c_str());
    }
    std::printf("\n");
  }
}

void PrintHeader(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Paper expectation: %s\n", expectation.c_str());
  std::printf("==============================================================\n");
}

}  // namespace gimbal::workload
