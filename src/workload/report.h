// Fixed-width table printing for the bench binaries, so every reproduced
// table/figure prints self-describing rows that can be diffed against the
// paper's values.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace gimbal::workload {

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& Columns(std::vector<std::string> names);
  Table& Row(std::vector<std::string> cells);
  // Prints the table to stdout, and records a copy in the print log if one
  // is installed (SetPrintLog).
  void Print() const;

  // The table as one JSON object {"title", "columns", "rows"}, one row per
  // line. A cell whose text is a JSON number literal is written as that
  // number; any other cell ("-", "PASS", "12.3x", "nan") as a string.
  std::string ToJson() const;

  // Formatting helpers.
  static std::string Num(double v, int precision = 1);
  static std::string MBps(double bytes_per_sec);
  static std::string Us(double ns);

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

// While `log` is non-null, every Table::Print() also appends a copy of the
// table to it, so a bench's machine-readable output is exactly what it
// printed (bench::ObsSession's --bench-json). Pass nullptr to stop.
void SetPrintLog(std::vector<Table>* log);

// Section banner used by every bench binary.
void PrintHeader(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation);

}  // namespace gimbal::workload
