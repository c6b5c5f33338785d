// Growth-law fitting for scaling experiments.
//
// The paper's claims are asymptotic: T = Θ(log n), Θ(n), Θ(n log n),
// Θ(n^{2/3}), ... We observe T(n) at a geometric range of n and fit
// T ≈ a·n^b by least squares on (ln n, ln T) (fit_power); the claim files'
// power(S) statistic is the fitted b.
#pragma once

#include <span>

namespace rumor {

struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;  // 1 - SS_res/SS_tot on the fitted axes
};

// Ordinary least squares of y against x. Sizes must match; needs >= 2 points.
[[nodiscard]] LinearFit fit_linear(std::span<const double> x,
                                   std::span<const double> y);

// T ≈ a·n^b. Returns slope=b, intercept=ln a, fitted on (ln n, ln T).
// All inputs must be strictly positive.
[[nodiscard]] LinearFit fit_power(std::span<const double> n,
                                  std::span<const double> t);

}  // namespace rumor
