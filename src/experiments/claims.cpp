#include "experiments/claims.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <limits>

#include "analysis/cdf.hpp"
#include "analysis/scaling.hpp"
#include "support/fit.hpp"
#include "support/spec_text.hpp"

namespace rumor {

namespace {

constexpr std::string_view kKeyword = "expect";
constexpr double kStretchSlack = 0.1;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct StatInfo {
  ClaimStat stat;
  const char* name;
  bool two_series;
};

constexpr std::array<StatInfo, 10> kStats{{
    {ClaimStat::power, "power", false},
    {ClaimStat::max, "max", false},
    {ClaimStat::mean, "mean", false},
    {ClaimStat::incomplete, "incomplete", false},
    {ClaimStat::rise, "rise", false},
    {ClaimStat::minlog, "minlog", false},
    {ClaimStat::ratio, "ratio", true},
    {ClaimStat::spread, "spread", true},
    {ClaimStat::gaplog, "gaplog", true},
    {ClaimStat::stretch, "stretch", true},
}};

const StatInfo& stat_info(ClaimStat stat) {
  for (const StatInfo& info : kStats) {
    if (info.stat == stat) return info;
  }
  RUMOR_CHECK(false);  // unreachable: the table covers the enum
  return kStats[0];
}

const char* op_text(ClaimOp op) {
  switch (op) {
    case ClaimOp::lt: return "<";
    case ClaimOp::le: return "<=";
    case ClaimOp::gt: return ">";
    case ClaimOp::ge: return ">=";
  }
  return "?";
}

std::string term_text(const ClaimTerm& t) {
  std::string out = std::string(stat_info(t.stat).name) + "(" + t.a;
  if (!t.b.empty()) out += ", " + t.b;
  return out + ")";
}

// Thresholds read as written: whole numbers in full ("100", where
// fmt_double's shortest form is "1e+02"), the rest in shortest round-trip
// form.
std::string number_text(double value) {
  if (value == std::trunc(value) && std::abs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  return spec_text::fmt_double(value);
}

std::string side_text(const ClaimSide& side) {
  if (side.terms.empty()) return number_text(side.offset);
  std::string out;
  if (side.scale != 1.0) out = number_text(side.scale) + " * ";
  out += side.terms.size() == 1
             ? term_text(side.terms[0])
             : "min(" + term_text(side.terms[0]) + ", " +
                   term_text(side.terms[1]) + ")";
  if (side.offset > 0.0) out += " + " + number_text(side.offset);
  if (side.offset < 0.0) out += " - " + number_text(-side.offset);
  return out;
}

// Recursive-descent reader over one claim's text (after "expect").
class ClaimReader {
 public:
  ClaimReader(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Claim> claim() {
    Claim out;
    auto lhs = side();
    if (!lhs) return std::nullopt;
    out.lhs = std::move(*lhs);
    skip_ws();
    if (eat("<=")) {
      out.op = ClaimOp::le;
    } else if (eat(">=")) {
      out.op = ClaimOp::ge;
    } else if (eat("<")) {
      out.op = ClaimOp::lt;
    } else if (eat(">")) {
      out.op = ClaimOp::gt;
    } else {
      return fail("expected <, <=, > or >= " + where());
    }
    auto rhs = side();
    if (!rhs) return std::nullopt;
    out.rhs = std::move(*rhs);
    skip_ws();
    if (pos_ != text_.size()) return fail("unexpected " + where());
    if (out.lhs.terms.empty() && out.rhs.terms.empty()) {
      return fail("a claim compares at least one stat");
    }
    return out;
  }

 private:
  std::nullopt_t fail(std::string message) {
    if (error_ != nullptr) *error_ = "expect: " + std::move(message);
    return std::nullopt;
  }

  std::string where() const {
    if (pos_ >= text_.size()) return "at end of line";
    return "at \"" + std::string(text_.substr(pos_)) + "\"";
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(std::string_view token) {
    if (text_.substr(pos_).starts_with(token)) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  bool at_number() const {
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    return std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
           c == '-' || c == '+';
  }

  std::optional<double> number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::string_view(".eE+-").find(text_[pos_]) !=
                std::string_view::npos)) {
      ++pos_;
    }
    const auto value =
        spec_text::parse_double(text_.substr(start, pos_ - start));
    if (!value || !std::isfinite(*value)) {
      pos_ = start;
      fail("expected a number " + where());
      return std::nullopt;
    }
    return value;
  }

  std::optional<ClaimSide> side() {
    ClaimSide out;
    skip_ws();
    if (at_number()) {
      const auto value = number();
      if (!value) return std::nullopt;
      skip_ws();
      if (!eat("*")) {
        out.offset = *value;
        return out;
      }
      out.scale = *value;
    }
    if (!terms(out)) return std::nullopt;
    skip_ws();
    const bool plus = eat("+");
    if (plus || eat("-")) {
      skip_ws();
      const auto value = number();
      if (!value) return std::nullopt;
      out.offset = plus ? *value : -*value;
    }
    return out;
  }

  std::string name() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::islower(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  bool expect_char(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    fail(std::string("expected '") + c + "' " + where());
    return false;
  }

  bool terms(ClaimSide& out) {
    const std::size_t start = pos_;
    const std::string head = name();
    if (head != "min") {
      pos_ = start;
      auto t = stat();
      if (!t) return false;
      out.terms.push_back(std::move(*t));
      return true;
    }
    if (!expect_char('(')) return false;
    for (int i = 0; i < 2; ++i) {
      auto t = stat();
      if (!t || !expect_char(i == 0 ? ',' : ')')) return false;
      out.terms.push_back(std::move(*t));
    }
    return true;
  }

  std::optional<std::string> series() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != ')' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a series label " + where());
      return std::nullopt;
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  std::optional<ClaimTerm> stat() {
    const std::string head = name();
    const auto it = std::find_if(
        kStats.begin(), kStats.end(),
        [&](const StatInfo& info) { return head == info.name; });
    if (it == kStats.end()) {
      std::string known;
      for (const StatInfo& info : kStats) {
        known += known.empty() ? "" : ", ";
        known += info.name;
      }
      fail("unknown stat \"" + head + "\" (expected " + known + ")");
      return std::nullopt;
    }
    ClaimTerm out;
    out.stat = it->stat;
    if (!expect_char('(')) return std::nullopt;
    auto a = series();
    if (!a) return std::nullopt;
    out.a = std::move(*a);
    if (it->two_series) {
      if (!expect_char(',')) return std::nullopt;
      auto b = series();
      if (!b) return std::nullopt;
      out.b = std::move(*b);
    }
    if (!expect_char(')')) return std::nullopt;
    return out;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

bool in_series(std::string_view label, std::string_view series) {
  return label == series ||
         (label.size() > series.size() && label.starts_with(series) &&
          label[series.size()] == '/');
}

template <class Rows, class LabelOf>
std::vector<std::size_t> series_rows(std::string_view series,
                                     const Rows& rows, LabelOf label_of) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (in_series(label_of(rows[i]), series)) out.push_back(i);
  }
  return out;
}

ScalingSeries scaling_series(const std::vector<std::size_t>& rows,
                             const std::vector<ScenarioResult>& results) {
  ScalingSeries out;
  for (const std::size_t i : rows) {
    out.points.push_back(
        {static_cast<double>(results[i].n), results[i].set.summary()});
  }
  return out;
}

// Fits and ratios take logs of and divide by means; a series with a
// non-positive mean has no value there, and the claim fails.
bool positive_means(const ScalingSeries& s) {
  return std::all_of(s.points.begin(), s.points.end(),
                     [](const ScalePoint& p) { return p.summary.mean > 0.0; });
}

double stat_value(const ClaimTerm& t,
                  const std::vector<ScenarioResult>& results) {
  const auto label_of = [](const ScenarioResult& r) -> const std::string& {
    return r.spec.label;
  };
  const std::vector<std::size_t> rows_a = series_rows(t.a, results, label_of);
  const std::vector<std::size_t> rows_b =
      t.b.empty() ? std::vector<std::size_t>{}
                  : series_rows(t.b, results, label_of);
  const ScalingSeries a = scaling_series(rows_a, results);
  const ScalingSeries b = scaling_series(rows_b, results);
  switch (t.stat) {
    case ClaimStat::power:
      return positive_means(a) ? fit_power(a.sizes(), a.means()).slope : kNaN;
    case ClaimStat::max: {
      double out = -std::numeric_limits<double>::infinity();
      for (const ScalePoint& p : a.points) out = std::max(out, p.summary.max);
      return out;
    }
    case ClaimStat::mean:
      return a.points.front().summary.mean;
    case ClaimStat::incomplete: {
      double out = 0.0;
      for (const std::size_t i : rows_a) {
        out += static_cast<double>(results[i].set.incomplete);
      }
      return out;
    }
    case ClaimStat::rise: {
      if (!positive_means(a)) return kNaN;
      double out = 0.0;
      for (std::size_t i = 1; i < a.points.size(); ++i) {
        out = std::max(out, a.points[i].summary.mean /
                                a.points[i - 1].summary.mean);
      }
      return out;
    }
    case ClaimStat::minlog: {
      double out = std::numeric_limits<double>::infinity();
      for (const ScalePoint& p : a.points) {
        out = std::min(out, p.summary.min / std::log(p.n));
      }
      return out;
    }
    case ClaimStat::ratio:
      return positive_means(b) ? max_ratio(a, b) : kNaN;
    case ClaimStat::spread:
      return positive_means(a) && positive_means(b) ? ratio_spread(a, b)
                                                    : kNaN;
    case ClaimStat::gaplog:
      return additive_log_gap(a, b);
    case ClaimStat::stretch:
      return minimal_stretch(EmpiricalCdf(results[rows_a[0]].set.rounds),
                             EmpiricalCdf(results[rows_b[0]].set.rounds),
                             kStretchSlack);
  }
  return kNaN;
}

double side_value(const ClaimSide& side,
                  const std::vector<ScenarioResult>& results) {
  if (side.terms.empty()) return side.offset;
  double value = stat_value(side.terms[0], results);
  if (side.terms.size() == 2) {
    const double other = stat_value(side.terms[1], results);
    // NaN propagates: a min over an undefined stat is undefined.
    value = std::isnan(value) || std::isnan(other) ? kNaN
                                                   : std::min(value, other);
  }
  return side.scale * value + side.offset;
}

}  // namespace

std::string Claim::text() const {
  return std::string(kKeyword) + " " + side_text(lhs) + " " + op_text(op) +
         " " + side_text(rhs);
}

bool is_claim_line(std::string_view line) {
  return line.starts_with(kKeyword) &&
         (line.size() == kKeyword.size() ||
          std::isspace(static_cast<unsigned char>(line[kKeyword.size()])));
}

std::optional<Claim> Claim::parse(std::string_view line, std::string* error) {
  line = spec_text::trim(line);
  if (!is_claim_line(line)) {
    if (error != nullptr) *error = "expected \"expect <side> <op> <side>\"";
    return std::nullopt;
  }
  return ClaimReader(line.substr(kKeyword.size()), error).claim();
}

bool check_claim(const Claim& claim, const std::vector<ScenarioSpec>& specs,
                 std::string* error) {
  const auto fail = [&](std::string message) {
    if (error != nullptr) *error = "expect: " + std::move(message);
    return false;
  };
  const auto rows = [&](const std::string& series) {
    return series_rows(series, specs, [](const ScenarioSpec& s) {
             return std::string_view(s.label);
           }).size();
  };
  for (const ClaimSide* side : {&claim.lhs, &claim.rhs}) {
    for (const ClaimTerm& t : side->terms) {
      const std::string stat = stat_info(t.stat).name;
      const std::size_t na = rows(t.a);
      const std::size_t nb = t.b.empty() ? 0 : rows(t.b);
      if (na == 0 || (!t.b.empty() && nb == 0)) {
        return fail("series \"" + (na == 0 ? t.a : t.b) +
                    "\" matches no row (a series is the rows labelled S or "
                    "S/...)");
      }
      std::string counts = t.a + " has " + std::to_string(na);
      if (!t.b.empty()) counts += ", " + t.b + " has " + std::to_string(nb);
      if (t.stat == ClaimStat::power && na < 3) {
        return fail("power fits a growth law over at least 3 rows, " +
                    counts);
      }
      if (t.stat == ClaimStat::rise && na < 2) {
        return fail("rise compares consecutive rows, " + counts);
      }
      const bool one_row =
          t.stat == ClaimStat::mean || t.stat == ClaimStat::stretch;
      if (one_row && (na != 1 || (!t.b.empty() && nb != 1))) {
        return fail(stat + " reads one row per series, " + counts);
      }
      if (!t.b.empty() && na != nb) {
        return fail(stat + " pairs rows by position, " + counts);
      }
    }
  }
  return true;
}

ClaimVerdict evaluate_claim(const Claim& claim,
                            const std::vector<ScenarioResult>& results) {
  ClaimVerdict out;
  out.lhs = side_value(claim.lhs, results);
  out.rhs = side_value(claim.rhs, results);
  switch (claim.op) {
    case ClaimOp::lt: out.holds = out.lhs < out.rhs; break;
    case ClaimOp::le: out.holds = out.lhs <= out.rhs; break;
    case ClaimOp::gt: out.holds = out.lhs > out.rhs; break;
    case ClaimOp::ge: out.holds = out.lhs >= out.rhs; break;
  }
  return out;
}

}  // namespace rumor
