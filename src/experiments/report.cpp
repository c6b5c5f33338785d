#include "experiments/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "support/table.hpp"

namespace rumor {

std::string fmt_mean_pm(const Summary& s, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f ±%.*f", precision, s.mean, precision,
                s.stderr_mean);
  return buf;
}

// ---- Scenario report ---------------------------------------------------

namespace {

const std::vector<std::string>& scenario_table_header() {
  static const std::vector<std::string> header{
      "scenario", "graph",  "protocol", "n",        "trials",    "mean",
      "median",   "min",    "max",      "informed", "incomplete"};
  return header;
}

std::vector<std::string> scenario_table_cells(const ScenarioResult& r) {
  const Summary s = r.set.summary();
  return {r.spec.display_label(),   r.spec.graph.name(),
          r.spec.protocol.name(),   std::to_string(r.n),
          std::to_string(s.count),  fmt_mean_pm(s),
          TextTable::num(s.median, 1), TextTable::num(s.min, 1),
          TextTable::num(s.max, 1),
          TextTable::num(r.set.informed_summary().mean, 1),
          std::to_string(r.set.incomplete)};
}

const std::vector<std::string>& scenario_csv_header() {
  static const std::vector<std::string> header{
      "label", "graph",  "protocol", "n",   "m",   "trials",
      "seed",  "source", "mean",     "stddev", "stderr", "min",
      "q25",   "median", "q75",      "max", "agent_mean", "informed_mean",
      "incomplete"};
  return header;
}

std::vector<std::string> scenario_csv_cells(const ScenarioResult& r) {
  const Summary s = r.set.summary();
  const Summary agents = r.set.agent_summary();
  return {r.spec.display_label(), r.spec.graph.name(),
          r.spec.protocol.name(), std::to_string(r.n),
          std::to_string(r.edges), std::to_string(s.count),
          std::to_string(r.spec.plan.seed),
          std::to_string(r.spec.plan.source), std::to_string(s.mean),
          std::to_string(s.stddev), std::to_string(s.stderr_mean),
          std::to_string(s.min), std::to_string(s.q25),
          std::to_string(s.median), std::to_string(s.q75),
          std::to_string(s.max), std::to_string(agents.mean),
          std::to_string(r.set.informed_summary().mean),
          std::to_string(r.set.incomplete)};
}

}  // namespace

std::string scenario_table(const std::vector<ScenarioResult>& results) {
  TextTable table(scenario_table_header());
  for (const ScenarioResult& r : results) {
    table.add_row(scenario_table_cells(r));
  }
  return table.render_plain();
}

void write_scenario_csv(std::ostream& out,
                        const std::vector<ScenarioResult>& results) {
  ScenarioCsvStream stream(out);
  for (const ScenarioResult& r : results) stream.row(r);
}

ScenarioTableStream::ScenarioTableStream(
    const std::vector<ScenarioSpec>& specs, std::ostream& out)
    : out_(out) {
  const auto& header = scenario_table_header();
  widths_.assign(header.size(), 0);
  for (std::size_t c = 0; c < header.size(); ++c) {
    widths_[c] = header[c].size();
  }
  // The spec-derived text columns are known before any trial runs; the
  // numeric columns get generous fixed floors (a longer cell only bends
  // its own row, it does not shift the file).
  for (const ScenarioSpec& spec : specs) {
    widths_[0] = std::max(widths_[0], spec.display_label().size());
    widths_[1] = std::max(widths_[1], spec.graph.name().size());
    widths_[2] = std::max(widths_[2], spec.protocol.name().size());
  }
  widths_[3] = std::max<std::size_t>(widths_[3], 8);   // n
  widths_[5] = std::max<std::size_t>(widths_[5], 18);  // mean ±stderr
  widths_[6] = std::max<std::size_t>(widths_[6], 9);   // median
  widths_[7] = std::max<std::size_t>(widths_[7], 9);   // min
  widths_[8] = std::max<std::size_t>(widths_[8], 9);   // max
  widths_[9] = std::max<std::size_t>(widths_[9], 9);   // informed
  TextTable::emit_plain_row(out_, header, widths_);
  out_ << TextTable::plain_rule(widths_) << '\n' << std::flush;
}

void ScenarioTableStream::row(const ScenarioResult& r) {
  TextTable::emit_plain_row(out_, scenario_table_cells(r), widths_);
  out_ << std::flush;  // a streamed row must not sit in a buffer
}

ScenarioCsvStream::ScenarioCsvStream(std::ostream& out)
    : csv_(out, scenario_csv_header()) {}

void ScenarioCsvStream::row(const ScenarioResult& r) {
  csv_.row(scenario_csv_cells(r));
}

namespace {

std::string join_csv(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) line += ',';
    line += CsvWriter::escape(cells[i]);
  }
  return line;
}

}  // namespace

std::string scenario_csv_header_line() {
  return join_csv(scenario_csv_header());
}

std::string scenario_csv_line(const ScenarioResult& r) {
  return join_csv(scenario_csv_cells(r));
}

}  // namespace rumor
