// VISIT-EXCHANGE protocol tests.
#include <gtest/gtest.h>

#include <cmath>

#include "core/visit_exchange.hpp"
#include "graph/generators.hpp"
#include "support/stats.hpp"

namespace rumor {
namespace {

TEST(VisitExchange, SourceAndCohabitantsInformedAtRoundZero) {
  const Graph g = gen::complete(8);
  WalkOptions options;
  options.agent_count = 50;
  VisitExchangeProcess p(g, 3, 7, options);
  EXPECT_TRUE(p.vertex_informed(3));
  EXPECT_EQ(p.informed_vertex_count(), 1u);
  for (Agent a = 0; a < 50; ++a) {
    EXPECT_EQ(p.agent_informed(a), p.agents().position(a) == 3);
  }
}

TEST(VisitExchange, CompletesOnSmallGraphs) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const RunResult r = run_visit_exchange(gen::cycle(16), 0, seed);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.rounds, 0u);
  }
}

TEST(VisitExchange, AgentsCompleteNoLaterThanVertices) {
  // Once every vertex is informed, phase B of that same round informs all
  // remaining agents; individual agents often finish earlier.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const RunResult r = run_visit_exchange(gen::hypercube(6), 0, seed);
    ASSERT_TRUE(r.completed);
    EXPECT_LE(r.agent_rounds, r.rounds);
  }
}

TEST(VisitExchange, MonotoneInformedCounts) {
  const Graph g = gen::grid2d(8, 8);
  WalkOptions options;
  VisitExchangeProcess p(g, 0, 3, options);
  std::uint32_t prev_v = p.informed_vertex_count();
  std::size_t prev_a = p.informed_agent_count();
  while (!p.done()) {
    p.step();
    EXPECT_GE(p.informed_vertex_count(), prev_v);
    EXPECT_GE(p.informed_agent_count(), prev_a);
    prev_v = p.informed_vertex_count();
    prev_a = p.informed_agent_count();
  }
}

TEST(VisitExchange, VertexInformsRequireAgentPresence) {
  // With a single agent, the informed set can grow by at most one vertex
  // per round (the vertex the informed agent visits).
  const Graph g = gen::cycle(12);
  WalkOptions options;
  options.agent_count = 1;
  VisitExchangeProcess p(g, 0, 5, options);
  std::uint32_t prev = p.informed_vertex_count();
  for (int i = 0; i < 200 && !p.done(); ++i) {
    p.step();
    EXPECT_LE(p.informed_vertex_count(), prev + 1);
    prev = p.informed_vertex_count();
  }
}

TEST(VisitExchange, InformRoundTraceConsistency) {
  WalkOptions options;
  options.trace.inform_rounds = true;
  const RunResult r =
      run_visit_exchange(gen::heavy_binary_tree(63), 0, 9, options);
  ASSERT_TRUE(r.completed);
  std::uint32_t max_round = 0;
  for (std::uint32_t t : r.vertex_inform_round) {
    ASSERT_NE(t, kNeverInformed);
    max_round = std::max(max_round, t);
  }
  EXPECT_EQ(max_round, r.rounds);
  // Every informed agent has an inform round no later than the final round.
  for (std::uint32_t t : r.agent_inform_round) {
    EXPECT_LE(t, r.rounds);
  }
}

TEST(VisitExchange, StarIsLogarithmicallyFast) {
  // Lemma 2(c): T_visitx = O(log n) w.h.p. on the star.
  const Vertex leaves = 1024;
  const Graph g = gen::star(leaves);
  std::vector<double> samples;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    samples.push_back(
        static_cast<double>(run_visit_exchange(g, 1, seed).rounds));
  }
  const Summary s = Summary::of(samples);
  // Generous O(log n) band: ~10 * log2(1024) = 100, far below n.
  EXPECT_LT(s.max, 10 * std::log2(leaves));
}

TEST(VisitExchange, AlphaControlsAgentCount) {
  const Graph g = gen::cycle(100);
  WalkOptions half;
  half.alpha = 0.5;
  VisitExchangeProcess p(g, 0, 1, half);
  EXPECT_EQ(p.agents().count(), 50u);
  WalkOptions twice;
  twice.agent_count = 200;
  VisitExchangeProcess q(g, 0, 1, twice);
  EXPECT_EQ(q.agents().count(), 200u);
}

TEST(VisitExchange, FewerAgentsSlower) {
  const Graph g = gen::torus2d(16, 16);
  WalkOptions sparse;
  sparse.alpha = 0.1;
  WalkOptions dense;
  dense.alpha = 2.0;
  std::vector<double> sparse_t, dense_t;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    sparse_t.push_back(
        static_cast<double>(run_visit_exchange(g, 0, seed, sparse).rounds));
    dense_t.push_back(
        static_cast<double>(run_visit_exchange(g, 0, seed, dense).rounds));
  }
  EXPECT_GT(Summary::of(sparse_t).mean, Summary::of(dense_t).mean);
}

TEST(VisitExchange, OnePerVertexPlacementWorks) {
  const Graph g = gen::hypercube(6);
  WalkOptions options;
  options.placement = Placement::one_per_vertex;
  options.agent_count = g.num_vertices();
  const RunResult r = run_visit_exchange(g, 0, 3, options);
  EXPECT_TRUE(r.completed);
}

TEST(VisitExchange, CutoffReportsIncomplete) {
  const Graph g = gen::heavy_binary_tree(4095);
  WalkOptions options;
  options.max_rounds = 2;  // heavy tree needs Ω(n) to reach the root
  const RunResult r = run_visit_exchange(g, 4094, 1, options);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 2u);
}

TEST(VisitExchange, DeterministicGivenSeed) {
  const Graph g = gen::grid2d(10, 10);
  const RunResult a = run_visit_exchange(g, 0, 777);
  const RunResult b = run_visit_exchange(g, 0, 777);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.agent_rounds, b.agent_rounds);
}

}  // namespace
}  // namespace rumor
