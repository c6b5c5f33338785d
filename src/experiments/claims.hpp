// Paper claims as checked lines of a scenario file.
//
// A scenario file states its expected results next to the rows that
// measure them:
//
//   star(leaves=2k..32k) push           source=1 label=push
//   star(leaves=2k..32k) visit-exchange source=1 label=visit-exchange
//   expect power(push) > 0.8
//   expect ratio(visit-exchange, push) < 0.2
//
// Grammar: `expect <side> <op> <side>` with op one of < <= > >=. A side is
// a number or `[c *] term [+ d]` (or `- d`); a term is a stat or
// `min(stat, stat)`. A series S names the expanded rows whose label is S
// or starts with S/, in file order; two-series stats pair rows by
// position, and x is a row's vertex count n. The stats:
//
//   power(S)      growth exponent b of mean ~ a*n^b (classify_series)
//   max(S)        largest single-trial round count over the rows
//   mean(S)       mean round count of S's one row
//   incomplete(S) trials that hit the round cutoff, summed over the rows
//   rise(S)       largest mean(S_i) / mean(S_i-1) over consecutive rows
//   minlog(S)     smallest min(S_i) / ln n_i
//   ratio(A, B)   largest mean(A_i) / mean(B_i) (max_ratio)
//   spread(A, B)  max / min of mean(A_i) / mean(B_i) (ratio_spread)
//   gaplog(A, B)  smallest c >= 0 with mean(A_i) <= mean(B_i) + c ln n_i
//   stretch(A, B) smallest c with P[A <= c k] >= P[B <= k] - 0.1 for all
//                 k, over the trials of A's and B's one row each
//
// Claims are validated when the file loads (every series must match a
// row, power needs three rows, paired series equal row counts, mean and
// stretch exactly one row) and evaluated after a complete run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/scenario.hpp"

namespace rumor {

enum class ClaimStat : std::uint8_t {
  power,
  max,
  mean,
  incomplete,
  rise,
  minlog,
  ratio,
  spread,
  gaplog,
  stretch,
};

struct ClaimTerm {
  ClaimStat stat = ClaimStat::mean;
  std::string a;
  std::string b;  // second series of a two-series stat, else empty

  friend bool operator==(const ClaimTerm&, const ClaimTerm&) = default;
};

// `scale * term + offset`, `scale * min(term, term) + offset`, or the
// number `offset` alone (no terms).
struct ClaimSide {
  double scale = 1.0;
  std::vector<ClaimTerm> terms;
  double offset = 0.0;

  friend bool operator==(const ClaimSide&, const ClaimSide&) = default;
};

enum class ClaimOp : std::uint8_t { lt, le, gt, ge };

struct Claim {
  ClaimSide lhs;
  ClaimOp op = ClaimOp::lt;
  ClaimSide rhs;
  std::size_t line = 0;  // line in its scenario file; 0 when parsed alone

  // Canonical "expect ..." text; parse(text()) reproduces the claim.
  [[nodiscard]] std::string text() const;
  static std::optional<Claim> parse(std::string_view line,
                                    std::string* error = nullptr);

  friend bool operator==(const Claim&, const Claim&) = default;
};

// True when the (comment-stripped, trimmed) line is an `expect` line.
[[nodiscard]] bool is_claim_line(std::string_view line);

// Load-time check of one claim against a file's expanded rows; the reason
// goes to *error.
[[nodiscard]] bool check_claim(const Claim& claim,
                               const std::vector<ScenarioSpec>& specs,
                               std::string* error = nullptr);

struct ClaimVerdict {
  bool holds = false;  // false as well when a side is NaN
  double lhs = 0.0;
  double rhs = 0.0;
};

// Evaluates a checked claim on the results of its file's rows (same
// order as the specs it was checked against).
[[nodiscard]] ClaimVerdict evaluate_claim(
    const Claim& claim, const std::vector<ScenarioResult>& results);

}  // namespace rumor
