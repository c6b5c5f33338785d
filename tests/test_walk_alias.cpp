// Alias sampler correctness: exactness on degenerate cases, chi-squared
// style frequency bands on general weights, and the in-place build's table
// bit for bit against Vose's two-stack build.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/generators.hpp"
#include "walk/alias.hpp"

namespace rumor {
namespace {

TEST(Alias, SingleOutcome) {
  const std::vector<double> w{5.0};
  AliasSampler s(w);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.sample(rng), 0u);
}

TEST(Alias, ZeroWeightNeverSampled) {
  const std::vector<double> w{1.0, 0.0, 1.0};
  AliasSampler s(w);
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) EXPECT_NE(s.sample(rng), 1u);
}

TEST(Alias, UniformWeights) {
  const std::vector<double> w(8, 3.0);
  AliasSampler s(w);
  Rng rng(3);
  std::vector<int> counts(8, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[s.sample(rng)];
  const double expected = kDraws / 8.0;
  for (int c : counts) EXPECT_NEAR(c, expected, 5 * std::sqrt(expected));
}

TEST(Alias, SkewedWeightsMatchProbabilities) {
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};  // sum 10
  AliasSampler s(w);
  Rng rng(4);
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[s.sample(rng)];
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double expected = kDraws * w[i] / 10.0;
    EXPECT_NEAR(counts[i], expected, 5 * std::sqrt(expected)) << "i=" << i;
  }
}

TEST(Alias, ExtremeSkew) {
  // 999:1 ratio — the rare outcome must still appear at its rate.
  const std::vector<double> w{999.0, 1.0};
  AliasSampler s(w);
  Rng rng(5);
  int rare = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) rare += (s.sample(rng) == 1) ? 1 : 0;
  EXPECT_NEAR(rare, kDraws / 1000.0, 5 * std::sqrt(kDraws / 1000.0));
}

TEST(Alias, DegreeDistributionOfStar) {
  // The stationary distribution on a star: center has deg n, leaves 1.
  const int leaves = 9;
  std::vector<double> w(leaves + 1, 1.0);
  w[0] = leaves;
  AliasSampler s(w);
  Rng rng(6);
  int at_center = 0;
  constexpr int kDraws = 90000;
  for (int i = 0; i < kDraws; ++i) at_center += (s.sample(rng) == 0) ? 1 : 0;
  EXPECT_NEAR(at_center, kDraws / 2.0, 5 * std::sqrt(kDraws / 2.0));
}

// Vose's build with a scaled copy and two separate stacks, as the sampler
// was first written: the table the in-place build must reproduce.
struct TwoStackTable {
  std::vector<double> prob;
  std::vector<std::uint32_t> alias;
};

TwoStackTable two_stack_build(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) total += w;
  TwoStackTable t{std::vector<double>(n, 0.0),
                  std::vector<std::uint32_t>(n, 0)};
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::vector<std::uint32_t> small, large;
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    t.prob[s] = scaled[s];
    t.alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (std::uint32_t i : large) t.prob[i] = 1.0;
  for (std::uint32_t i : small) t.prob[i] = 1.0;
  return t;
}

std::vector<double> degree_weights(const Graph& g) {
  std::vector<double> w(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) w[v] = g.degree(v);
  return w;
}

void expect_same_table(const std::vector<double>& weights, const char* what) {
  const AliasSampler s(weights);
  const TwoStackTable want = two_stack_build(weights);
  ASSERT_EQ(s.size(), weights.size()) << what;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_EQ(std::memcmp(&s.prob()[i], &want.prob[i], sizeof(double)), 0)
        << what << " prob[" << i << "] " << s.prob()[i] << " vs "
        << want.prob[i];
    EXPECT_EQ(s.alias()[i], want.alias[i]) << what << " alias[" << i << "]";
  }
}

TEST(Alias, InPlaceBuildMatchesTwoStackTableBitForBit) {
  expect_same_table(degree_weights(gen::star(1000)), "star");
  expect_same_table(degree_weights(gen::heavy_binary_tree(255)),
                    "heavy tree");
  Rng graph_rng(7);
  expect_same_table(degree_weights(gen::random_regular(500, 7, graph_rng)),
                    "random regular");
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> w(1 + rng.below(300));
    for (double& x : w) {
      // About a quarter zeros, the rest spread over six decades.
      x = rng.below(4) == 0 ? 0.0 : std::pow(10.0, 6.0 * rng.uniform01());
    }
    w[rng.below(w.size())] = 1.0;  // a positive total
    expect_same_table(w, "random weights");
  }
}

}  // namespace
}  // namespace rumor
