// Scaling statistics for size sweeps.
//
// A ScalingSeries is the measured broadcast time of one protocol across a
// geometric range of sizes. The helpers here reduce series to the numbers
// the paper's claims bound (experiments/claims): fitted growth exponents,
// constant-ratio bands (Theorem 1), and additive-logarithmic gaps
// (Theorem 23).
#pragma once

#include <string>
#include <vector>

#include "support/fit.hpp"
#include "support/stats.hpp"

namespace rumor {

struct ScalePoint {
  double n = 0.0;  // instance size the claim scales in
  Summary summary;
};

struct ScalingSeries {
  std::string label;
  std::vector<ScalePoint> points;

  [[nodiscard]] std::vector<double> sizes() const;
  [[nodiscard]] std::vector<double> means() const;
};

// Growth-law verdict on the series means (requires >= 3 points).
[[nodiscard]] LawVerdict classify_series(const ScalingSeries& series);

// max_i(a_i/b_i) / min_i(a_i/b_i) over the pointwise mean ratios: how far
// the two series drift from a constant factor across sizes (Theorem 1's
// band).
[[nodiscard]] double ratio_spread(const ScalingSeries& a,
                                  const ScalingSeries& b);

// Largest pointwise ratio mean(a)/mean(b).
[[nodiscard]] double max_ratio(const ScalingSeries& a,
                               const ScalingSeries& b);

// Smallest c >= 0 with mean(a_i) <= mean(b_i) + c*ln(n_i) at every point
// (Theorem 23's shape), x taken from a.
[[nodiscard]] double additive_log_gap(const ScalingSeries& a,
                                      const ScalingSeries& b);

}  // namespace rumor
