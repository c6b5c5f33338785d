// Executable-proof tests: the coupling invariants of Sections 5–7.
//
// These are the strongest correctness checks in the suite: Lemma 13 and
// Lemma 14 hold ALMOST SURELY under the coupling (not just w.h.p.), so a
// single violation on any seed is a bug in the simulator or in the
// mechanized proof object.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "core/coupling/coupled_push_visitx.hpp"
#include "core/coupling/odd_even_coupling.hpp"
#include "core/coupling/shared_choices.hpp"
#include "core/meet_exchange.hpp"
#include "core/visit_exchange.hpp"
#include "graph/generators.hpp"

namespace rumor {
namespace {

TEST(SharedChoices, LazyMaterializationAndStability) {
  const Graph g = gen::complete(8);
  SharedChoices choices(g, 42);
  EXPECT_EQ(choices.materialized(3), 0u);
  const Vertex w5 = choices.get(3, 5);
  EXPECT_EQ(choices.materialized(3), 5u);
  // Re-reading returns the identical value (the whole point of sharing).
  EXPECT_EQ(choices.get(3, 5), w5);
  EXPECT_EQ(choices.get(3, 2), choices.get(3, 2));
  // Values are neighbors of the queried vertex.
  for (std::size_t i = 1; i <= 20; ++i) {
    EXPECT_TRUE(g.has_edge(3, choices.get(3, i)));
  }
}

TEST(SharedChoices, RoughlyUniformOverNeighbors) {
  const Graph g = gen::star(4);  // center 0 with 4 leaves
  SharedChoices choices(g, 7);
  std::vector<int> counts(5, 0);
  for (std::size_t i = 1; i <= 40000; ++i) ++counts[choices.get(0, i)];
  for (Vertex leaf = 1; leaf <= 4; ++leaf) {
    EXPECT_NEAR(counts[leaf], 10000, 5 * std::sqrt(10000.0));
  }
}

// The largest graph of the Section 5/6 coupling measurements: random
// 14-regular on 2048 vertices.
Graph paper_size_graph() {
  Rng rng(20190729 ^ 0xC0DEu);
  return gen::random_regular(2048, 14, rng);
}

// Lemma 13 (τ_u ≤ C_u(t_u)) across graph families and seeds. Parameterized
// over (family index, seed).
class Lemma13Test
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  static Graph make_graph(int family) {
    Rng rng(911 + family);
    switch (family) {
      case 0:
        return gen::random_regular(128, 8, rng);
      case 1:
        return gen::hypercube(7);
      case 2:
        return gen::clique_ring(8, 8);
      case 3:
        return gen::complete(96);
      case 4:
        return gen::circulant(120, 5);
      default:
        return paper_size_graph();
    }
  }
};

TEST_P(Lemma13Test, TauBoundedByCCounter) {
  const auto [family, seed] = GetParam();
  const Graph g = make_graph(family);
  CoupledPushVisitx coupled(g, 0, seed);
  const CoupledResult r = coupled.run();
  ASSERT_TRUE(r.visitx_completed);
  ASSERT_TRUE(r.push_completed);
  EXPECT_TRUE(r.lemma13_holds);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    EXPECT_LE(r.push_inform_round[u], r.ccounter_at_inform[u]) << "u=" << u;
  }
  // And hence T_push ≤ max_u C_u(t_u), the step used in Theorem 10.
  EXPECT_LE(r.push_rounds, r.max_ccounter);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSeeds, Lemma13Test,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL)));

TEST(Lemma14, CanonicalWalkCongestionEqualsCCounter) {
  // Reconstruct the information path via the parent pointers and check
  // Q(θ) == C_u(t) for every vertex at t = t_u, plus spot checks at later t.
  Rng grng(5);
  const Graph g = gen::random_regular(64, 8, grng);
  CoupledOptions options;
  options.record_occupancy_history = true;
  CoupledPushVisitx coupled(g, 0, 77, options);
  const CoupledResult r = coupled.run();
  ASSERT_TRUE(r.visitx_completed);
  const auto& occ = coupled.occupancy_history();
  ASSERT_EQ(occ.size(), r.visitx_rounds + 1);  // rounds 0..T

  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    // Walk the parent chain back to the source, collecting inform times.
    std::vector<Vertex> path;
    Vertex v = u;
    while (v != kNoVertex) {
      path.push_back(v);
      v = r.parent[v];
    }
    ASSERT_EQ(path.back(), coupled.source());
    // Canonical walk: occupy path[j] during [t_{path[j]}, t_{path[j-1]});
    // congestion counts rounds 0 .. t_u - 1.
    std::uint64_t congestion = 0;
    for (std::size_t j = path.size(); j-- > 0;) {
      const Vertex vertex = path[j];
      const std::uint32_t enter = r.visitx_inform_round[vertex];
      const std::uint32_t leave =
          (j == 0) ? r.visitx_inform_round[u] : r.visitx_inform_round[path[j - 1]];
      for (std::uint32_t t = enter; t < leave; ++t) {
        congestion += occ[t][vertex];
      }
    }
    EXPECT_EQ(congestion, r.ccounter_at_inform[u]) << "u=" << u;

    // Extended walk: appending k extra waiting rounds at u adds the
    // occupancy of u over those rounds (Lemma 14 for t > t_u).
    const std::uint32_t t_u = r.visitx_inform_round[u];
    if (t_u + 3 <= r.visitx_rounds) {
      std::uint64_t extended = congestion;
      for (std::uint32_t t = t_u; t < t_u + 3; ++t) extended += occ[t][u];
      EXPECT_EQ(extended, coupled.ccounter_at(u, t_u + 3)) << "u=" << u;
    }
  }
}

TEST(Lemma13, HoldsWithOnePerVertexStart) {
  // The remark after Lemma 11: the coupling argument needs no assumption on
  // the initial distribution beyond the bound, and holds for the
  // one-walk-per-vertex start as well.
  Rng grng(17);
  const Graph g = gen::random_regular(128, 10, grng);
  CoupledOptions options;
  options.placement = Placement::one_per_vertex;
  options.agent_count = g.num_vertices();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    CoupledPushVisitx coupled(g, 0, seed, options);
    const CoupledResult r = coupled.run();
    ASSERT_TRUE(r.visitx_completed);
    EXPECT_TRUE(r.lemma13_holds) << "seed=" << seed;
  }
}

TEST(Lemma13, CongestionPerRoundIsModest) {
  // Theorem 10's quantitative heart: max_u C_u(t_u) = O(T_visitx) — the
  // congestion-to-rounds ratio stays bounded by a small constant on
  // log-degree regular graphs. β from Lemma 18 is ~2eγ+1; empirically the
  // ratio is far smaller. Use a loose factor to stay robust.
  Rng grng(23);
  for (const Graph& g :
       {gen::random_regular(256, 12, grng), paper_size_graph()}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const CoupledResult r = CoupledPushVisitx(g, 0, seed).run();
      ASSERT_TRUE(r.visitx_completed);
      const double ratio = static_cast<double>(r.max_ccounter) /
                           static_cast<double>(r.visitx_rounds);
      EXPECT_LT(ratio, 25.0) << "n=" << g.num_vertices() << " seed=" << seed;
    }
  }
}

TEST(OddEven, CoupledRunsCompleteAndRatioBounded) {
  // Lemma 22 empirically: t'_u ≤ c (τ_u + log n) with a modest constant on
  // regular graphs of logarithmic degree.
  Rng grng(29);
  for (const Graph& g :
       {gen::random_regular(256, 12, grng), paper_size_graph()}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const OddEvenResult r = run_odd_even_coupling(g, 0, seed);
      ASSERT_TRUE(r.push_completed);
      ASSERT_TRUE(r.visitx_completed);
      EXPECT_GT(r.max_ratio, 0.0);
      EXPECT_LT(r.max_ratio, 40.0)
          << "n=" << g.num_vertices() << " seed=" << seed;
    }
  }
}

// Theorem 23's natural coupling: visit-exchange and meet-exchange driven by
// the same walks. Built with the same graph, source, seed and WalkOptions,
// the production processes place and step their agents identically: their
// walk streams serve only placement and steps (success draws come from the
// transmission model's own Philox streams), and the sharded engine keys
// both by (seed, round, agent id). Stepping the two in lockstep therefore
// IS the coupling, under which meetx-informed ⊆ visitx-informed after
// every round, hence R_visitx ≤ T_meetx, for regular and non-regular
// graphs alike (the subset containment is structural). Families 4 and 5
// are the smallest sizes of Theorem 23's measured families (random regular
// with d = 1.5 log2 n, a ring of 16-cliques), where the pathwise bound
// implies the claim on means, R_visitx ≲ T_meetx.
class NaturalCouplingTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  static Graph make_graph(int family) {
    Rng rng(1234 + family);
    switch (family) {
      case 0:
        return gen::random_regular(96, 8, rng);
      case 1:
        return gen::complete(64);
      case 2:
        return gen::clique_ring(6, 6);
      case 3:
        return gen::star(63);  // bipartite: exercises lazy walks
      case 4:
        return gen::random_regular(1024, 15, rng);
      default:
        return gen::clique_ring(32, 16);
    }
  }
};

// Steps both processes until both complete, asserting the coupling and the
// subset invariant after every round; `shards` = 0 is the serial engine.
void expect_natural_coupling(const Graph& g, std::uint64_t seed,
                             std::uint32_t shards) {
  WalkOptions options;
  options.lazy = LazyMode::auto_bipartite;
  options.shards = shards;
  VisitExchangeProcess visitx(g, 0, seed, options);
  MeetExchangeProcess meetx(g, 0, seed, options);
  const std::size_t count = visitx.agents().count();
  ASSERT_EQ(meetx.agents().count(), count);
  const Round cutoff = default_round_cutoff(g.num_vertices());
  Round r_visitx = kNoRoundYet;
  Round t_meetx = kNoRoundYet;
  while (true) {
    const Round round = visitx.round();
    ASSERT_EQ(meetx.round(), round);
    const std::span<const Vertex> positions = visitx.agents().positions();
    ASSERT_TRUE(std::ranges::equal(positions, meetx.agents().positions()))
        << "round " << round;
    for (Agent a = 0; a < count; ++a) {
      if (meetx.agent_informed(a)) {
        ASSERT_TRUE(visitx.agent_informed(a))
            << "agent " << a << " round " << round;
      }
    }
    if (r_visitx == kNoRoundYet && visitx.all_agents_informed()) {
      r_visitx = round;
    }
    if (t_meetx == kNoRoundYet && meetx.done()) t_meetx = round;
    if ((visitx.done() && meetx.done()) || round >= cutoff) break;
    visitx.step();
    meetx.step();
  }
  ASSERT_TRUE(visitx.done());
  ASSERT_TRUE(meetx.done());
  EXPECT_LE(r_visitx, t_meetx);
}

TEST_P(NaturalCouplingTest, MeetxInformedSubsetOfVisitx) {
  const auto [family, seed] = GetParam();
  const Graph g = make_graph(family);
  for (const std::uint32_t shards : {0u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_natural_coupling(g, seed, shards);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSeeds, NaturalCouplingTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL)));

}  // namespace
}  // namespace rumor
