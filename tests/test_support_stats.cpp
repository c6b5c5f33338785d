// Statistics and fitting unit tests.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/fit.hpp"
#include "support/stats.hpp"

namespace rumor {
namespace {

TEST(Summary, KnownSample) {
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  const Summary s = Summary::of(v);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 1e-3);  // sample sd with n-1
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
}

TEST(Summary, EmptyIsAllZero) {
  const Summary s = Summary::of({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summary, SingleElement) {
  const std::vector<double> v{3.5};
  const Summary s = Summary::of(v);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 3.5);
}

TEST(Quantile, LinearInterpolation) {
  const std::vector<double> v{1, 2, 3, 4};  // sorted
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0 / 3.0), 2.0);
}

TEST(FitLinear, ExactLine) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{3, 5, 7, 9, 11};  // y = 2x + 1
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(FitLinear, DegenerateConstantX) {
  const std::vector<double> x{2, 2, 2};
  const std::vector<double> y{1, 2, 3};
  const LinearFit f = fit_linear(x, y);
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
  EXPECT_DOUBLE_EQ(f.intercept, 2.0);
}

TEST(FitPower, RecoverExponent) {
  // T = 3 * n^1.5
  std::vector<double> n, t;
  for (double x : {64.0, 128.0, 256.0, 512.0, 1024.0}) {
    n.push_back(x);
    t.push_back(3.0 * std::pow(x, 1.5));
  }
  const LinearFit f = fit_power(n, t);
  EXPECT_NEAR(f.slope, 1.5, 1e-9);
  EXPECT_NEAR(std::exp(f.intercept), 3.0, 1e-9);
}

TEST(FitLogLaw, RecoverCoefficients) {
  // T = 7*ln n + 2
  std::vector<double> n, t;
  for (double x : {64.0, 256.0, 1024.0, 4096.0}) {
    n.push_back(x);
    t.push_back(7.0 * std::log(x) + 2.0);
  }
  const LinearFit f = fit_log_law(n, t);
  EXPECT_NEAR(f.slope, 7.0, 1e-9);
  EXPECT_NEAR(f.intercept, 2.0, 1e-9);
}

TEST(ClassifyGrowth, DetectsLogarithmic) {
  std::vector<double> n, t;
  for (double x = 256; x <= 1 << 20; x *= 4) {
    n.push_back(x);
    t.push_back(5.0 * std::log(x) + 3.0);
  }
  const LawVerdict v = classify_growth(n, t);
  EXPECT_EQ(v.best, GrowthLaw::logarithmic);
  EXPECT_LT(v.power_exponent, 0.15);
}

TEST(ClassifyGrowth, DetectsLinear) {
  std::vector<double> n, t;
  for (double x = 256; x <= 1 << 18; x *= 4) {
    n.push_back(x);
    t.push_back(0.25 * x);
  }
  const LawVerdict v = classify_growth(n, t);
  EXPECT_NEAR(v.power_exponent, 1.0, 0.05);
  EXPECT_NE(v.best, GrowthLaw::logarithmic);
}

TEST(ClassifyGrowth, DetectsPolynomialTwoThirds) {
  std::vector<double> n, t;
  for (double x = 1024; x <= 1 << 22; x *= 4) {
    n.push_back(x);
    t.push_back(2.0 * std::pow(x, 2.0 / 3.0));
  }
  const LawVerdict v = classify_growth(n, t);
  EXPECT_EQ(v.best, GrowthLaw::power);
  EXPECT_NEAR(v.power_exponent, 2.0 / 3.0, 0.05);
}

TEST(ClassifyGrowth, DetectsLinearithmic) {
  std::vector<double> n, t;
  for (double x = 256; x <= 1 << 18; x *= 4) {
    n.push_back(x);
    t.push_back(0.5 * x * std::log(x));
  }
  const LawVerdict v = classify_growth(n, t);
  EXPECT_EQ(v.best, GrowthLaw::linearithmic);
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 4
  h.add(5.0);   // bin 2
  h.add(-1.0);  // underflow
  h.add(10.0);  // overflow (hi is exclusive)
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_low(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_high(1), 4.0);
  EXPECT_FALSE(h.render().empty());
}

}  // namespace
}  // namespace rumor
