// Scenario report output: mean±stderr cells and the streaming scenario
// report (rows emitted as scenarios complete, in file order — see
// run_scenarios' on_result hook).
#pragma once

#include <iosfwd>
#include <string>

#include "experiments/scenario.hpp"
#include "support/csv.hpp"
#include "support/stats.hpp"

namespace rumor {

// "123.4 ±5.6"
[[nodiscard]] std::string fmt_mean_pm(const Summary& s, int precision = 1);

// Streams the terminal scenario report: the header is printed at
// construction, one aligned row per completed scenario. Spec-derived
// column widths are computed from the whole file up front, so streamed
// rows line up without waiting for the last scenario.
class ScenarioTableStream {
 public:
  ScenarioTableStream(const std::vector<ScenarioSpec>& specs,
                      std::ostream& out);
  void row(const ScenarioResult& r);

 private:
  std::ostream& out_;
  std::vector<std::size_t> widths_;
};

// Streams the scenario CSV artifact: header at construction — which is
// what lets the CLI open and validate the sink BEFORE any trial runs —
// then one row per completed scenario, same columns as write_scenario_csv.
class ScenarioCsvStream {
 public:
  explicit ScenarioCsvStream(std::ostream& out);
  void row(const ScenarioResult& r);

 private:
  CsvWriter csv_;
};

// The scenario CSV header and one formatted data row as single lines
// WITHOUT the trailing newline — the serve daemon streams these over the
// wire so a client-collected CSV is byte-identical to write_scenario_csv
// output (same cells, same RFC 4180 escaping).
[[nodiscard]] std::string scenario_csv_header_line();
[[nodiscard]] std::string scenario_csv_line(const ScenarioResult& r);

}  // namespace rumor
