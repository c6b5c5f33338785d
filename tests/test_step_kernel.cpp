// Batched walk-kernel tests: equivalence with the checked scalar
// reference (bit-identical trajectories), the power-of-two fast path, the
// fused lazy draw, and the sharded stepper's per-walker draws (uniform
// neighbor picks and lazy coin).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/generators.hpp"
#include "walk/step_kernel.hpp"

namespace rumor {
namespace {

std::vector<Graph> test_graphs() {
  Rng rng(12345);
  std::vector<Graph> graphs;
  graphs.push_back(gen::hypercube(8));          // degree 8: pow2 fast path
  graphs.push_back(gen::circulant(96, 8));      // degree 16: pow2 fast path
  graphs.push_back(gen::cycle(64));             // degree 2: pow2, bipartite
  graphs.push_back(gen::heavy_binary_tree(63)); // mixed degrees, non-pow2
  graphs.push_back(gen::random_regular(100, 5, rng));  // odd degree
  graphs.push_back(gen::star(33));              // extreme degree skew
  // Wide rows (leaf cliques of 64-128 members, hubs of 300 leaves), where
  // a walker's drawn neighbor lies far past its row's first cache line,
  // and the Fig 1(e) family.
  graphs.push_back(gen::heavy_binary_tree(255));
  graphs.push_back(gen::siamese_heavy_tree(127));
  graphs.push_back(gen::double_star(300));
  graphs.push_back(gen::cycle_stars_cliques(4));
  return graphs;
}

// Runs `rounds` steps of both engines from `start` and expects the same
// positions and the same number of draws consumed.
void expect_engines_agree(const Graph& g, Laziness lazy, std::uint64_t seed,
                          const std::vector<Vertex>& start, int rounds) {
  Rng rng_a(seed), rng_b(seed);
  std::vector<Vertex> pos_a = start;
  std::vector<Vertex> pos_b = start;
  for (int round = 0; round < rounds; ++round) {
    step_walks(g, pos_a, rng_a, lazy, StepEngine::batched);
    step_walks(g, pos_b, rng_b, lazy, StepEngine::scalar_checked);
  }
  EXPECT_EQ(pos_a, pos_b) << "n=" << g.num_vertices()
                          << " lazy=" << (lazy == Laziness::half)
                          << " seed=" << seed << " agents=" << start.size();
  EXPECT_EQ(rng_a(), rng_b());
}

// The two engines must produce bit-identical position arrays from the same
// seed — the pow2 shift and the prefetched batched loops are pure
// strength-reductions of the scalar checked path. Besides one agent per
// vertex, every span of 1 to 40 agents from random starts runs, so the
// draw-ahead pipeline's head, ring and tail (depth 8) are all compared,
// at fewer agents than its depth too.
TEST(StepKernel, EnginesProduceIdenticalTrajectories) {
  for (const Graph& g : test_graphs()) {
    for (Laziness lazy : {Laziness::none, Laziness::half}) {
      for (std::uint64_t seed = 0; seed < 5; ++seed) {
        std::vector<Vertex> start(g.num_vertices());
        for (Vertex v = 0; v < g.num_vertices(); ++v) start[v] = v;
        expect_engines_agree(g, lazy, seed, start, 20);
      }
      Rng start_rng(g.num_vertices());
      for (std::size_t agents = 1; agents <= 40; ++agents) {
        std::vector<Vertex> start(agents);
        for (Vertex& p : start) {
          p = static_cast<Vertex>(start_rng.below(g.num_vertices()));
        }
        expect_engines_agree(g, lazy, agents, start, 5);
      }
    }
  }
}

TEST(StepKernel, StepsLandOnNeighborsOrStay) {
  for (const Graph& g : test_graphs()) {
    for (Laziness lazy : {Laziness::none, Laziness::half}) {
      Rng rng(3);
      std::vector<Vertex> pos(g.num_vertices());
      for (Vertex v = 0; v < g.num_vertices(); ++v) pos[v] = v;
      std::vector<Vertex> before = pos;
      step_walks(g, pos, rng, lazy);
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        if (lazy == Laziness::half && pos[v] == before[v]) continue;
        EXPECT_TRUE(g.has_edge(before[v], pos[v]));
      }
    }
  }
}

// Pow2 fast path correctness beyond equivalence: the drawn neighbor is
// uniform. Hypercube degree 8, 32k draws per start slot.
TEST(StepKernel, Pow2FastPathIsUniform) {
  const Graph g = gen::hypercube(8);
  ASSERT_TRUE(g.degrees_all_pow2());
  const Vertex start = 17;
  const int draws = 32000;
  std::vector<int> hits(g.num_vertices(), 0);
  Rng rng(11);
  std::vector<Vertex> pos(1);
  for (int i = 0; i < draws; ++i) {
    pos[0] = start;
    step_walks(g, pos, rng, Laziness::none);
    ++hits[pos[0]];
  }
  const double expected = draws / 8.0;
  for (Vertex w : g.neighbors(start)) {
    EXPECT_NEAR(hits[w], expected, 5 * std::sqrt(expected)) << "w=" << w;
  }
}

// The fused draw keeps the lazy coin fair and the conditional step uniform.
TEST(StepKernel, FusedLazyDrawIsFairAndUniform) {
  const Graph g = gen::circulant(64, 2);  // degree 4
  const Vertex start = 0;
  const int draws = 40000;
  int stayed = 0;
  std::vector<int> hits(g.num_vertices(), 0);
  Rng rng(13);
  std::vector<Vertex> pos(1);
  for (int i = 0; i < draws; ++i) {
    pos[0] = start;
    step_walks(g, pos, rng, Laziness::half);
    if (pos[0] == start) {
      ++stayed;
    } else {
      ++hits[pos[0]];
    }
  }
  EXPECT_NEAR(stayed, draws / 2.0, 5 * std::sqrt(draws / 2.0));
  const double expected = (draws - stayed) / 4.0;
  for (Vertex w : g.neighbors(start)) {
    EXPECT_NEAR(hits[w], expected, 5 * std::sqrt(expected)) << "w=" << w;
  }
}

// Non-pow2 fused lazy draw: rejection sampling stays unbiased.
TEST(StepKernel, FusedLazyDrawUniformOnOddDegree) {
  Rng gen_rng(5);
  const Graph g = gen::random_regular(30, 3, gen_rng);
  const Vertex start = 0;
  const int draws = 30000;
  int stayed = 0;
  std::vector<int> hits(g.num_vertices(), 0);
  Rng rng(17);
  std::vector<Vertex> pos(1);
  for (int i = 0; i < draws; ++i) {
    pos[0] = start;
    step_walks(g, pos, rng, Laziness::half);
    if (pos[0] == start) {
      ++stayed;
    } else {
      ++hits[pos[0]];
    }
  }
  EXPECT_NEAR(stayed, draws / 2.0, 5 * std::sqrt(draws / 2.0));
  const double expected = (draws - stayed) / 3.0;
  for (Vertex w : g.neighbors(start)) {
    EXPECT_NEAR(hits[w], expected, 5 * std::sqrt(expected)) << "w=" << w;
  }
}

// ---- sharded stepper --------------------------------------------------

// Every walker of a sharded step draws from its own addressable chain
// (SlotDraws keyed by walker index); the chains must still pick neighbors
// uniformly (hypercube degree 8: the pow2 case of the Lemire draw over
// Philox words) and, when lazy, stay put with probability 1/2.
TEST(StepKernel, ShardedStepIsUniform) {
  const Graph g = gen::hypercube(8);
  const Vertex start = 17;
  constexpr int kWalkers = 32000;
  for (const Laziness lazy : {Laziness::none, Laziness::half}) {
    std::vector<Vertex> pos(kWalkers, start);
    step_walks_sharded(g, pos, /*trial_seed=*/51, /*round=*/3, lazy,
                       /*shards=*/4);
    std::vector<int> hits(g.num_vertices(), 0);
    for (const Vertex v : pos) ++hits[v];
    const int stayed = hits[start];
    if (lazy == Laziness::half) {
      EXPECT_NEAR(stayed, kWalkers / 2.0, 5 * std::sqrt(kWalkers / 4.0));
    } else {
      EXPECT_EQ(stayed, 0);
    }
    const double expected = (kWalkers - stayed) / 8.0;
    for (Vertex w : g.neighbors(start)) {
      EXPECT_NEAR(hits[w], expected, 5 * std::sqrt(expected)) << "w=" << w;
    }
  }
}

TEST(StepKernel, DegreesAllPow2Flag) {
  EXPECT_TRUE(gen::hypercube(8).degrees_all_pow2());
  EXPECT_TRUE(gen::cycle(10).degrees_all_pow2());
  EXPECT_TRUE(gen::circulant(40, 8).degrees_all_pow2());
  EXPECT_TRUE(gen::star(8).degrees_all_pow2());  // center 8, leaves 1
  EXPECT_FALSE(gen::hypercube(5).degrees_all_pow2());        // degree 5
  EXPECT_FALSE(gen::star(6).degrees_all_pow2());             // center 6
  EXPECT_FALSE(gen::heavy_binary_tree(15).degrees_all_pow2());  // degree 3
}

}  // namespace
}  // namespace rumor
