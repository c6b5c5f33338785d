// Fast statistical versions of the paper's separation results (Lemmas 2-9)
// and regular-graph theorems (1, 23, 24, 25) at fixed test sizes, plus the
// bandwidth-fairness claim, which no scenario row can show. The size
// sweeps and growth-law fits are the `expect` lines of
// examples/scenarios/*.scn, which rumor_run checks after each run; these
// tests pin the *ordering* and rough magnitudes so regressions in any
// protocol show up in ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "core/meet_exchange.hpp"
#include "core/push.hpp"
#include "core/push_pull.hpp"
#include "core/visit_exchange.hpp"
#include "graph/generators.hpp"
#include "support/stats.hpp"

namespace rumor {
namespace {

double mean_rounds(const Graph& g, Vertex source, int trials,
                   const std::function<RunResult(const Graph&, Vertex,
                                                 std::uint64_t)>& runner) {
  std::vector<double> samples;
  for (int seed = 0; seed < trials; ++seed) {
    const RunResult r = runner(g, source, static_cast<std::uint64_t>(seed));
    EXPECT_TRUE(r.completed);
    samples.push_back(static_cast<double>(r.rounds));
  }
  return Summary::of(samples).mean;
}

const auto kPush = [](const Graph& g, Vertex s, std::uint64_t seed) {
  return run_push(g, s, seed);
};
const auto kPpull = [](const Graph& g, Vertex s, std::uint64_t seed) {
  return run_push_pull(g, s, seed);
};
const auto kVisitx = [](const Graph& g, Vertex s, std::uint64_t seed) {
  return run_visit_exchange(g, s, seed);
};
const auto kMeetx = [](const Graph& g, Vertex s, std::uint64_t seed) {
  return run_meet_exchange(g, s, seed);
};

TEST(Lemma2Star, PushSlowOthersFast) {
  const Vertex leaves = 512;
  const Graph g = gen::star(leaves);
  const double log_n = std::log2(static_cast<double>(leaves));

  const double push = mean_rounds(g, 1, 10, kPush);
  const double ppull = mean_rounds(g, 1, 10, kPpull);
  const double visitx = mean_rounds(g, 1, 10, kVisitx);
  const double meetx = mean_rounds(g, 1, 10, kMeetx);

  EXPECT_GT(push, static_cast<double>(leaves));  // Ω(n log n) ≥ n here
  EXPECT_LE(ppull, 2.0);                         // Lemma 2(b)
  EXPECT_LT(visitx, 10 * log_n);                 // O(log n)
  EXPECT_LT(meetx, 20 * log_n);                  // O(log n), lazy walks
  EXPECT_GT(push, 20 * visitx);                  // the separation itself
}

TEST(Lemma3DoubleStar, PushPullSlowAgentsFast) {
  const Vertex leaves = 512;
  const Graph g = gen::double_star(leaves);
  const double log_n = std::log2(2.0 * leaves);

  const double ppull = mean_rounds(g, 2, 10, kPpull);
  const double visitx = mean_rounds(g, 2, 10, kVisitx);
  const double meetx = mean_rounds(g, 2, 10, kMeetx);

  EXPECT_GT(ppull, static_cast<double>(leaves) / 8);  // Ω(n)
  EXPECT_LT(visitx, 10 * log_n);
  EXPECT_LT(meetx, 25 * log_n);
  EXPECT_GT(ppull, 5 * visitx);
  EXPECT_GT(ppull, 3 * meetx);
}

TEST(Lemma4HeavyTree, PushFastVisitxSlowMeetxFastFromLeaf) {
  const Vertex n = 1023;
  const Graph g = gen::heavy_binary_tree(n);
  const Vertex leaf_source = n - 1;
  const double log_n = std::log2(static_cast<double>(n));

  const double push = mean_rounds(g, leaf_source, 10, kPush);
  const double visitx = mean_rounds(g, leaf_source, 10, kVisitx);
  const double meetx = mean_rounds(g, leaf_source, 10, kMeetx);

  EXPECT_LT(push, 9 * log_n);     // O(log n)
  EXPECT_GT(visitx, 2.5 * push);  // Ω(n): root starves for agent visits
  EXPECT_LT(meetx, 15 * log_n);   // Lemma 4(c): informed agents meet in
                                  // the leaf clique
  EXPECT_GT(visitx, 2 * meetx);
}

TEST(Lemma8Siamese, BothAgentProtocolsSlow) {
  const Vertex n = 1023;  // per copy; total 2n-1
  const Graph g = gen::siamese_heavy_tree(n);
  const Vertex leaf_source = n - 1;  // a leaf of copy 0
  const double log_n = std::log2(2.0 * n);

  const double push = mean_rounds(g, leaf_source, 8, kPush);
  const double visitx = mean_rounds(g, leaf_source, 8, kVisitx);
  const double meetx = mean_rounds(g, leaf_source, 8, kMeetx);

  EXPECT_LT(push, 9 * log_n);
  EXPECT_GT(visitx, 3 * push);  // Ω(n)
  EXPECT_GT(meetx, 3 * push);   // Ω(n): information must cross the root
}

TEST(Lemma9CycleStarsCliques, VisitxBeatsMeetx) {
  const Vertex k = 8;  // n = k + k^2 + k^3 = 584
  const Graph g = gen::cycle_stars_cliques(k);
  const Vertex clique_source = k + k * k;  // a clique vertex

  const double visitx = mean_rounds(g, clique_source, 8, kVisitx);
  const double meetx = mean_rounds(g, clique_source, 8, kMeetx);

  // Lemma 9: E[T_meetx] is a log-factor above E[T_visitx]; at this size we
  // require the ordering with some daylight.
  EXPECT_GT(meetx, 1.2 * visitx);
}

TEST(Theorem1, PushAndVisitxWithinConstantFactorOnRegularGraphs) {
  // d >= log2(n) regular families: the ratio push/visitx must stay in a
  // modest band (both directions of Theorem 1).
  struct Case {
    const char* name;
    Graph graph;
  };
  Rng rng(5);
  std::vector<Case> cases;
  cases.push_back({"random_regular(512,12)",
                   gen::random_regular(512, 12, rng)});
  cases.push_back({"hypercube(9)", gen::hypercube(9)});
  cases.push_back({"clique_ring(16,16)", gen::clique_ring(16, 16)});

  for (const auto& c : cases) {
    const double push = mean_rounds(c.graph, 0, 10, kPush);
    const double visitx = mean_rounds(c.graph, 0, 10, kVisitx);
    const double ratio = push / visitx;
    EXPECT_GT(ratio, 1.0 / 12.0) << c.name;
    EXPECT_LT(ratio, 12.0) << c.name;
  }
}

TEST(Theorem1, HoldsOnSlowMixingRegularFamily) {
  // The clique ring has Θ(groups) broadcast time for both protocols —
  // Theorem 1 is not a fast-graph artifact.
  const Graph g = gen::clique_ring(32, 8);
  const double push = mean_rounds(g, 0, 8, kPush);
  const double visitx = mean_rounds(g, 0, 8, kVisitx);
  EXPECT_GT(push, 32.0 / 2);  // ≥ groups/2 rounds: genuinely slow
  const double ratio = push / visitx;
  EXPECT_GT(ratio, 1.0 / 12.0);
  EXPECT_LT(ratio, 12.0);
}

TEST(Theorem23, VisitxWithinAdditiveLogOfMeetx) {
  Rng rng(7);
  const Graph g = gen::random_regular(512, 12, rng);
  const double visitx = mean_rounds(g, 0, 10, kVisitx);
  const double meetx = mean_rounds(g, 0, 10, kMeetx);
  const double log_n = std::log(512.0);
  EXPECT_LE(visitx, meetx + 6 * log_n);
}

TEST(Theorems24And25, LogarithmicLowerBoundsOnRegularGraphs) {
  // Even on the best-connected regular graph (complete), both agent-based
  // protocols need Ω(log n) rounds.
  const Vertex n = 2048;
  const Graph g = gen::complete(n);
  const double log_n = std::log2(static_cast<double>(n));
  std::vector<double> visitx_min, meetx_min;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    visitx_min.push_back(
        static_cast<double>(run_visit_exchange(g, 0, seed).rounds));
    meetx_min.push_back(
        static_cast<double>(run_meet_exchange(g, 0, seed).rounds));
  }
  EXPECT_GT(Summary::of(visitx_min).min, log_n / 4);
  EXPECT_GT(Summary::of(meetx_min).min, log_n / 4);
}

// Section 1's "locally fair bandwidth", at full size: on the double star
// (2048 leaves per star, source 2, a fixed 400-round window, 8 trials of
// each protocol) push-pull calls the center-center bridge O(1/n) times per
// round while visit-exchange walks across it at a constant rate, and only
// push-pull starves an edge — why the agent protocols win Fig. 1(b). The
// per-edge traffic trace never reaches a scenario row, so the claim lives
// here.
TEST(BandwidthFairness, PushPullStarvesTheDoubleStarBridge) {
  constexpr Vertex kLeaves = 1 << 11;
  constexpr Round kHorizon = 400;
  constexpr std::uint64_t kSeed = 20190729;
  const Graph g = gen::double_star(kLeaves);
  EdgeId bridge = 0;
  for (std::uint32_t i = 0; i < g.degree(0); ++i) {
    if (g.neighbor(0, i) == 1) bridge = g.edge_id(0, i);
  }
  // Mean over trials of bridge crossings per round and of the smallest
  // edge's traffic relative to the mean edge's.
  struct Traffic {
    EdgeId bridge;
    std::vector<double> bridge_per_round;
    std::vector<double> min_over_mean;
    void add(std::span<const std::uint64_t> edges) {
      bridge_per_round.push_back(static_cast<double>(edges[bridge]) /
                                 static_cast<double>(kHorizon));
      std::uint64_t total = 0;
      for (const std::uint64_t c : edges) total += c;
      const double mean =
          static_cast<double>(total) / static_cast<double>(edges.size());
      min_over_mean.push_back(
          mean > 0 ? static_cast<double>(
                         *std::min_element(edges.begin(), edges.end())) /
                         mean
                   : 0.0);
    }
  };
  Traffic ppull{bridge, {}, {}};
  Traffic visitx{bridge, {}, {}};
  for (std::size_t i = 0; i < 8; ++i) {
    PushPullOptions pp_options;
    pp_options.trace.edge_traffic = true;
    pp_options.max_rounds = kHorizon;  // run the full window even if done
    PushPullProcess pp(g, 2, derive_seed(kSeed, i), pp_options);
    for (Round t = 0; t < kHorizon; ++t) pp.step();
    ppull.add(pp.run().edge_traffic);

    WalkOptions vx_options;
    vx_options.trace.edge_traffic = true;
    VisitExchangeProcess vx(g, 2, derive_seed(kSeed + 7, i), vx_options);
    for (Round t = 0; t < kHorizon; ++t) vx.step();
    visitx.add(vx.run().edge_traffic);
  }
  const double ppull_bridge = Summary::of(ppull.bridge_per_round).mean;
  const double visitx_bridge = Summary::of(visitx.bridge_per_round).mean;
  EXPECT_LT(ppull_bridge, 20.0 / kLeaves);  // O(1/n) per round
  EXPECT_GT(visitx_bridge, 0.3);            // Theta(1) per round
  // The fairness gap that explains the Fig. 1(b) separation.
  EXPECT_GT(visitx_bridge / std::max(ppull_bridge, 1e-9), kLeaves / 20.0);
  // No edge starves under visit-exchange; push-pull starves the bridge.
  EXPECT_GT(Summary::of(visitx.min_over_mean).mean, 0.3);
  EXPECT_LT(Summary::of(ppull.min_over_mean).mean, 0.05);
}

}  // namespace
}  // namespace rumor
