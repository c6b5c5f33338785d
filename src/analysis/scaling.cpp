#include "analysis/scaling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/assert.hpp"

namespace rumor {

std::vector<double> ScalingSeries::sizes() const {
  std::vector<double> out;
  out.reserve(points.size());
  for (const auto& p : points) out.push_back(p.n);
  return out;
}

std::vector<double> ScalingSeries::means() const {
  std::vector<double> out;
  out.reserve(points.size());
  for (const auto& p : points) out.push_back(p.summary.mean);
  return out;
}

LawVerdict classify_series(const ScalingSeries& series) {
  return classify_growth(series.sizes(), series.means());
}

double max_ratio(const ScalingSeries& a, const ScalingSeries& b) {
  RUMOR_REQUIRE(a.points.size() == b.points.size());
  RUMOR_REQUIRE(!a.points.empty());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    RUMOR_REQUIRE(b.points[i].summary.mean > 0.0);
    worst = std::max(worst, a.points[i].summary.mean / b.points[i].summary.mean);
  }
  return worst;
}

double ratio_spread(const ScalingSeries& a, const ScalingSeries& b) {
  RUMOR_REQUIRE(a.points.size() == b.points.size());
  RUMOR_REQUIRE(!a.points.empty());
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    RUMOR_REQUIRE(b.points[i].summary.mean > 0.0);
    const double r = a.points[i].summary.mean / b.points[i].summary.mean;
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  return hi / lo;
}

double additive_log_gap(const ScalingSeries& a, const ScalingSeries& b) {
  RUMOR_REQUIRE(a.points.size() == b.points.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const double gap = a.points[i].summary.mean - b.points[i].summary.mean;
    worst = std::max(worst, gap / std::log(a.points[i].n));
  }
  return worst;
}

}  // namespace rumor
