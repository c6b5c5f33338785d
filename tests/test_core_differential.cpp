// Differential tests: the optimized simulators vs. the naive reference
// transcriptions of Section 3. The optimizations (saturation retirement,
// frontier iteration, alias placement) are argued law-preserving in
// docs/perf.md, "Law-preserving optimizations"; these tests check that
// claim empirically by comparing broadcast-time distributions on several
// graph shapes.
#include <gtest/gtest.h>

#include <vector>

#include "core/meet_exchange.hpp"
#include "core/push.hpp"
#include "core/push_pull.hpp"
#include "core/reference.hpp"
#include "core/visit_exchange.hpp"
#include "graph/generators.hpp"
#include "support/stats.hpp"

namespace rumor {
namespace {

constexpr Round kCutoff = 1 << 20;

// Means must agree within `sigmas` combined standard errors plus a small
// absolute epsilon (guards the zero-variance deterministic cases).
void expect_distribution_match(const std::vector<double>& a,
                               const std::vector<double>& b,
                               double sigmas = 5.0) {
  const Summary sa = Summary::of(a);
  const Summary sb = Summary::of(b);
  EXPECT_NEAR(sa.mean, sb.mean,
              sigmas * (sa.stderr_mean + sb.stderr_mean) + 0.25)
      << "optimized mean " << sa.mean << " vs reference mean " << sb.mean;
}

TEST(Differential, PushOnStar) {
  const Graph g = gen::star(128);
  std::vector<double> fast, ref;
  Rng ref_rng(99);
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    fast.push_back(static_cast<double>(run_push(g, 1, seed).rounds));
    ref.push_back(static_cast<double>(reference_push(g, 1, ref_rng, kCutoff)));
  }
  expect_distribution_match(fast, ref);
}

TEST(Differential, PushOnCompleteGraph) {
  const Graph g = gen::complete(128);
  std::vector<double> fast, ref;
  Rng ref_rng(7);
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    fast.push_back(static_cast<double>(run_push(g, 0, seed).rounds));
    ref.push_back(static_cast<double>(reference_push(g, 0, ref_rng, kCutoff)));
  }
  expect_distribution_match(fast, ref);
}

TEST(Differential, PushOnHeavyTree) {
  const Graph g = gen::heavy_binary_tree(63);
  std::vector<double> fast, ref;
  Rng ref_rng(13);
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    fast.push_back(static_cast<double>(run_push(g, 62, seed).rounds));
    ref.push_back(
        static_cast<double>(reference_push(g, 62, ref_rng, kCutoff)));
  }
  expect_distribution_match(fast, ref);
}

TEST(Differential, PushPullOnDoubleStar) {
  const Graph g = gen::double_star(48);
  std::vector<double> fast, ref;
  Rng ref_rng(31);
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    fast.push_back(static_cast<double>(run_push_pull(g, 2, seed).rounds));
    ref.push_back(
        static_cast<double>(reference_push_pull(g, 2, ref_rng, kCutoff)));
  }
  expect_distribution_match(fast, ref);
}

TEST(Differential, PushPullOnHypercube) {
  const Graph g = gen::hypercube(7);
  std::vector<double> fast, ref;
  Rng ref_rng(43);
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    fast.push_back(static_cast<double>(run_push_pull(g, 0, seed).rounds));
    ref.push_back(
        static_cast<double>(reference_push_pull(g, 0, ref_rng, kCutoff)));
  }
  expect_distribution_match(fast, ref);
}

TEST(Differential, VisitExchangeOnCycle) {
  const Graph g = gen::cycle(48);
  std::vector<double> fast, ref;
  Rng ref_rng(51);
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    fast.push_back(
        static_cast<double>(run_visit_exchange(g, 0, seed).rounds));
    ref.push_back(static_cast<double>(
        reference_visit_exchange(g, 0, 48, Laziness::none, ref_rng, kCutoff)));
  }
  expect_distribution_match(fast, ref);
}

TEST(Differential, VisitExchangeOnHeavyTree) {
  const Graph g = gen::heavy_binary_tree(31);
  std::vector<double> fast, ref;
  Rng ref_rng(61);
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    fast.push_back(
        static_cast<double>(run_visit_exchange(g, 0, seed).rounds));
    ref.push_back(static_cast<double>(
        reference_visit_exchange(g, 0, 31, Laziness::none, ref_rng, kCutoff)));
  }
  expect_distribution_match(fast, ref);
}

TEST(Differential, MeetExchangeOnCompleteGraph) {
  const Graph g = gen::complete(48);
  std::vector<double> fast, ref;
  Rng ref_rng(71);
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    fast.push_back(
        static_cast<double>(run_meet_exchange(g, 0, seed).rounds));
    ref.push_back(static_cast<double>(
        reference_meet_exchange(g, 0, 48, Laziness::none, ref_rng, kCutoff)));
  }
  expect_distribution_match(fast, ref);
}

TEST(Differential, MeetExchangeLazyOnStar) {
  const Graph g = gen::star(32);
  std::vector<double> fast, ref;
  Rng ref_rng(81);
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    fast.push_back(static_cast<double>(
        run_meet_exchange(g, 1, seed).rounds));  // auto-lazy: bipartite
    ref.push_back(static_cast<double>(
        reference_meet_exchange(g, 1, 33, Laziness::half, ref_rng, kCutoff)));
  }
  expect_distribution_match(fast, ref);
}

TEST(Differential, DeterministicTwoPathAgreesExactly) {
  // On the 2-path every push trajectory is forced: both implementations
  // must report exactly one round regardless of seeds.
  const Graph g = gen::path(2);
  Rng ref_rng(5);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    EXPECT_EQ(run_push(g, 0, seed).rounds, 1u);
    EXPECT_EQ(reference_push(g, 0, ref_rng, kCutoff), 1u);
    EXPECT_EQ(run_push_pull(g, 0, seed).rounds, 1u);
    EXPECT_EQ(reference_push_pull(g, 0, ref_rng, kCutoff), 1u);
  }
}

}  // namespace
}  // namespace rumor
