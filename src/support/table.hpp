// Aligned text tables for report/example output.
//
// Collects rows of string cells and renders a column-aligned plain table.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace rumor {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  // Convenience: formats doubles with the given precision.
  [[nodiscard]] static std::string num(double value, int precision = 2);
  [[nodiscard]] static std::string num(std::uint64_t value);

  // The plain-format building blocks — one padded row (two-space
  // separators), and the dash rule for a width set. Shared between
  // render_plain and streaming writers (ScenarioTableStream) so the two
  // outputs cannot drift. A cell longer than its width bends only its
  // own row.
  static void emit_plain_row(std::ostream& out,
                             const std::vector<std::string>& cells,
                             const std::vector<std::size_t>& widths);
  [[nodiscard]] static std::string plain_rule(
      const std::vector<std::size_t>& widths);

  [[nodiscard]] std::string render_plain() const;

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

 private:
  [[nodiscard]] std::vector<std::size_t> widths() const;

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rumor
