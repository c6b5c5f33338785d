// PUSH protocol tests: exact semantics on tiny graphs, invariants, and
// statistical agreement with known broadcast-time laws.
#include <gtest/gtest.h>

#include <cmath>

#include "core/push.hpp"
#include "graph/generators.hpp"
#include "support/stats.hpp"

namespace rumor {
namespace {

TEST(Push, TwoVerticesOneRound) {
  const Graph g = gen::path(2);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const RunResult r = run_push(g, 0, seed);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.rounds, 1u);  // deterministic: 0 must call 1
  }
}

TEST(Push, PathIsDeterministicDiameterTime) {
  // On a path from an end vertex, each interior vertex has its informed
  // neighbor on one side only... only vertex ends are forced; interior
  // vertices have two choices, so only the 2-path is deterministic. For the
  // general path we check bounds: at least eccentricity rounds.
  const Graph g = gen::path(6);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const RunResult r = run_push(g, 0, seed);
    EXPECT_TRUE(r.completed);
    EXPECT_GE(r.rounds, 5u);  // information travels one hop per round max
  }
}

TEST(Push, SourceInformedAtRoundZero) {
  const Graph g = gen::complete(5);
  PushProcess p(g, 2, 1);
  EXPECT_TRUE(p.vertex_informed(2));
  EXPECT_EQ(p.informed_count(), 1u);
  EXPECT_EQ(p.vertex_inform_round(2), 0u);
  EXPECT_FALSE(p.done());
}

TEST(Push, InformedSetGrowsMonotonically) {
  const Graph g = gen::complete(64);
  PushProcess p(g, 0, 7);
  std::uint32_t prev = p.informed_count();
  while (!p.done()) {
    p.step();
    EXPECT_GE(p.informed_count(), prev);
    // Push at most doubles the informed set per round.
    EXPECT_LE(p.informed_count(), 2 * prev);
    prev = p.informed_count();
  }
}

TEST(Push, InformRoundsAreConsistent) {
  const Graph g = gen::heavy_binary_tree(63);
  PushOptions options;
  options.trace.inform_rounds = true;
  const RunResult r = run_push(g, 0, 3, options);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.vertex_inform_round.size(), g.num_vertices());
  std::uint32_t max_round = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NE(r.vertex_inform_round[v], kNeverInformed);
    max_round = std::max(max_round, r.vertex_inform_round[v]);
  }
  EXPECT_EQ(max_round, r.rounds);
  EXPECT_EQ(r.vertex_inform_round[0], 0u);
}

TEST(Push, InformedCurveMatchesCounts) {
  const Graph g = gen::complete(32);
  PushOptions options;
  options.trace.informed_curve = true;
  const RunResult r = run_push(g, 0, 9, options);
  ASSERT_EQ(r.informed_curve.size(), r.rounds + 1);
  EXPECT_EQ(r.informed_curve.front(), 1u);
  EXPECT_EQ(r.informed_curve.back(), 32u);
  for (std::size_t i = 1; i < r.informed_curve.size(); ++i) {
    EXPECT_GE(r.informed_curve[i], r.informed_curve[i - 1]);
  }
}

TEST(Push, CutoffReportsIncomplete) {
  const Graph g = gen::star(1000);
  PushOptions options;
  options.max_rounds = 3;  // far too few for the star
  const RunResult r = run_push(g, 0, 1, options);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 3u);
}

TEST(Push, CompleteGraphLogarithmicLaw) {
  // Classical result (Frieze–Grimmett/Pittel): T_push on K_n is
  // log2(n) + ln(n) + O(1). Check the mean lands in a generous band.
  const Vertex n = 1024;
  const Graph g = gen::complete(n);
  std::vector<double> samples;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    samples.push_back(static_cast<double>(run_push(g, 0, seed).rounds));
  }
  const double expected = std::log2(n) + std::log(n);
  const Summary s = Summary::of(samples);
  EXPECT_GT(s.mean, expected - 3.0);
  EXPECT_LT(s.mean, expected + 4.0);
}

TEST(Push, StarCouponCollectorLaw) {
  // Lemma 2(a): E[T_push] = Ω(n log n); with a leaf source it is
  // ~ n*H_n + O(n). Band check at one size.
  const Vertex leaves = 256;
  const Graph g = gen::star(leaves);
  std::vector<double> samples;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    samples.push_back(
        static_cast<double>(run_push(g, 1, seed).rounds));  // leaf source
  }
  double harmonic = 0;
  for (Vertex k = 1; k <= leaves; ++k) harmonic += 1.0 / k;
  const double coupon = leaves * harmonic;
  const Summary s = Summary::of(samples);
  EXPECT_GT(s.mean, 0.6 * coupon);
  EXPECT_LT(s.mean, 1.4 * coupon);
}

TEST(Push, LossySlowdownIsBounded) {
  // With independent message loss f, each call succeeds w.p. 1-f (tp =
  // 1-f): broadcast time scales by roughly 1/(1-f) on the complete graph
  // (Elsässer–Sauerwald robustness). Check directionality and rough
  // magnitude.
  const Graph g = gen::complete(512);
  std::vector<double> clean, lossy;
  PushOptions lossy_options;
  lossy_options.transmission.tp = 0.5;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    clean.push_back(static_cast<double>(run_push(g, 0, seed).rounds));
    lossy.push_back(
        static_cast<double>(run_push(g, 0, seed, lossy_options).rounds));
  }
  const double clean_mean = Summary::of(clean).mean;
  const double lossy_mean = Summary::of(lossy).mean;
  EXPECT_GT(lossy_mean, clean_mean * 1.2);
  EXPECT_LT(lossy_mean, clean_mean * 3.0);
}

TEST(Push, DeterministicGivenSeed) {
  const Graph g = gen::heavy_binary_tree(127);
  const RunResult a = run_push(g, 5, 12345);
  const RunResult b = run_push(g, 5, 12345);
  EXPECT_EQ(a.rounds, b.rounds);
}

}  // namespace
}  // namespace rumor
