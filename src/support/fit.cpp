#include "support/fit.hpp"

#include <cmath>
#include <vector>

#include "support/assert.hpp"

namespace rumor {

LinearFit fit_linear(std::span<const double> x, std::span<const double> y) {
  RUMOR_REQUIRE(x.size() == y.size());
  RUMOR_REQUIRE(x.size() >= 2);
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  LinearFit fit;
  if (denom == 0.0) {  // all x identical: degenerate, report flat line
    fit.slope = 0.0;
    fit.intercept = sy / n;
    fit.r_squared = 0.0;
    return fit;
  }
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;

  const double ymean = sy / n;
  double ss_res = 0, ss_tot = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double pred = fit.slope * x[i] + fit.intercept;
    ss_res += (y[i] - pred) * (y[i] - pred);
    ss_tot += (y[i] - ymean) * (y[i] - ymean);
  }
  fit.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

namespace {

std::vector<double> log_of(std::span<const double> v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (double x : v) {
    RUMOR_REQUIRE(x > 0.0);
    out.push_back(std::log(x));
  }
  return out;
}

}  // namespace

LinearFit fit_power(std::span<const double> n, std::span<const double> t) {
  const auto ln_n = log_of(n);
  const auto ln_t = log_of(t);
  return fit_linear(ln_n, ln_t);
}

LinearFit fit_log_law(std::span<const double> n, std::span<const double> t) {
  const auto ln_n = log_of(n);
  return fit_linear(ln_n, std::vector<double>(t.begin(), t.end()));
}

LawVerdict classify_growth(std::span<const double> n,
                           std::span<const double> t) {
  RUMOR_REQUIRE(n.size() == t.size());
  RUMOR_REQUIRE(n.size() >= 3);
  LawVerdict v;

  const LinearFit power = fit_power(n, t);
  const LinearFit loglaw = fit_log_law(n, t);
  v.power_exponent = power.slope;
  v.r2_power = power.r_squared;
  v.r2_log = loglaw.r_squared;

  // n·log n law: fit T against x = n·ln n linearly.
  std::vector<double> nlogn(n.size());
  for (std::size_t i = 0; i < n.size(); ++i) nlogn[i] = n[i] * std::log(n[i]);
  v.r2_nlogn = fit_linear(nlogn, std::vector<double>(t.begin(), t.end())).r_squared;

  if (power.slope < 0.15) {
    v.best = GrowthLaw::logarithmic;
  } else if (power.slope > 0.85 && v.r2_nlogn > v.r2_power) {
    v.best = GrowthLaw::linearithmic;
  } else {
    v.best = GrowthLaw::power;
  }
  return v;
}

}  // namespace rumor
