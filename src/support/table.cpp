#include "support/table.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "support/assert.hpp"

namespace rumor {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  RUMOR_REQUIRE(!header_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
  RUMOR_REQUIRE(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double value, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string TextTable::num(std::uint64_t value) {
  return std::to_string(value);
}

std::vector<std::size_t> TextTable::widths() const {
  std::vector<std::size_t> w(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) w[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      w[c] = std::max(w[c], row[c].size());
    }
  }
  return w;
}

void TextTable::emit_plain_row(std::ostream& out,
                               const std::vector<std::string>& cells,
                               const std::vector<std::size_t>& widths) {
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::size_t width = c < widths.size() ? widths[c] : 0;
    out << (c == 0 ? "" : "  ") << cells[c]
        << std::string(width > cells[c].size() ? width - cells[c].size() : 0,
                       ' ');
  }
  out << '\n';
}

std::string TextTable::plain_rule(const std::vector<std::size_t>& widths) {
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  return std::string(total, '-');
}

std::string TextTable::render_plain() const {
  const auto w = widths();
  std::ostringstream out;
  emit_plain_row(out, header_, w);
  out << plain_rule(w) << '\n';
  for (const auto& row : rows_) emit_plain_row(out, row, w);
  return out.str();
}

}  // namespace rumor
