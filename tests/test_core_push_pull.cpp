// PUSH-PULL protocol tests.
#include <gtest/gtest.h>

#include <cmath>

#include "core/push.hpp"
#include "core/push_pull.hpp"
#include "graph/generators.hpp"
#include "support/stats.hpp"

namespace rumor {
namespace {

TEST(PushPull, TwoVerticesOneRound) {
  const Graph g = gen::path(2);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const RunResult r = run_push_pull(g, 1, seed);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.rounds, 1u);
  }
}

TEST(PushPull, StarCompletesInAtMostTwoRounds) {
  // Lemma 2(b): T_ppull <= 2 on the star (leaves pull from the center).
  const Graph g = gen::star(500);
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const RunResult from_center = run_push_pull(g, 0, seed);
    EXPECT_TRUE(from_center.completed);
    EXPECT_LE(from_center.rounds, 1u);  // center informed: all leaves pull it
    const RunResult from_leaf = run_push_pull(g, 3, seed);
    EXPECT_TRUE(from_leaf.completed);
    EXPECT_LE(from_leaf.rounds, 2u);
  }
}

TEST(PushPull, NeverSlowerThanPushInDistribution) {
  // Push-pull dominates push on any graph (the push calls are a subset of
  // the exchanges). Compare means on a moderately hard graph.
  const Graph g = gen::heavy_binary_tree(255);
  std::vector<double> push_times, ppull_times;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    push_times.push_back(static_cast<double>(run_push(g, 0, seed).rounds));
    ppull_times.push_back(
        static_cast<double>(run_push_pull(g, 0, seed).rounds));
  }
  EXPECT_LE(Summary::of(ppull_times).mean, Summary::of(push_times).mean * 1.1);
}

TEST(PushPull, InformedSetMonotone) {
  const Graph g = gen::complete(64);
  PushPullProcess p(g, 0, 3);
  std::uint32_t prev = p.informed_count();
  while (!p.done()) {
    p.step();
    EXPECT_GE(p.informed_count(), prev);
    prev = p.informed_count();
  }
  EXPECT_EQ(p.informed_count(), 64u);
}

TEST(PushPull, DoubleStarBridgeIsSlow) {
  // Lemma 3(a): E[T_ppull] = Ω(n) on the double star — the bridge is chosen
  // with probability O(1/n) per round. At leaves=256, expect well over the
  // O(log n) scale of the star.
  const Vertex leaves = 256;
  const Graph g = gen::double_star(leaves);
  std::vector<double> samples;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    samples.push_back(static_cast<double>(run_push_pull(g, 2, seed).rounds));
  }
  const double mean = Summary::of(samples).mean;
  // Expected bridge-crossing wait is ~(leaves+1)/2 rounds; broadcast also
  // needs the initial hop and the final flood. A loose lower band suffices
  // to witness Ω(n) at fixed n.
  EXPECT_GT(mean, static_cast<double>(leaves) / 8);
}

TEST(PushPull, InformRoundsTraceConsistent) {
  const Graph g = gen::hypercube(7);
  PushPullOptions options;
  options.trace.inform_rounds = true;
  const RunResult r = run_push_pull(g, 0, 5, options);
  ASSERT_TRUE(r.completed);
  std::uint32_t max_round = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NE(r.vertex_inform_round[v], kNeverInformed);
    max_round = std::max(max_round, r.vertex_inform_round[v]);
  }
  EXPECT_EQ(max_round, r.rounds);
}

TEST(PushPull, CutoffReportsIncomplete) {
  const Graph g = gen::double_star(2000);
  PushPullOptions options;
  options.max_rounds = 2;
  const RunResult r = run_push_pull(g, 2, 1, options);
  EXPECT_FALSE(r.completed);
}

TEST(PushPull, LossySlowdownDirectional) {
  const Graph g = gen::complete(256);
  PushPullOptions lossy;
  lossy.transmission.tp = 0.4;  // independent message loss 0.6
  std::vector<double> clean_t, lossy_t;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    clean_t.push_back(static_cast<double>(run_push_pull(g, 0, seed).rounds));
    lossy_t.push_back(
        static_cast<double>(run_push_pull(g, 0, seed, lossy).rounds));
  }
  EXPECT_GT(Summary::of(lossy_t).mean, Summary::of(clean_t).mean);
}

}  // namespace
}  // namespace rumor
