// Batched walk-kernel tests: equivalence with the checked scalar
// reference (bit-identical trajectories), the power-of-two fast path, the
// fused lazy draw, traced-vs-untraced RNG determinism (the
// visit/meet-exchange divergence fix), and the sharded stepper's
// per-walker draws (uniform neighbor picks and lazy coin).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/meet_exchange.hpp"
#include "core/visit_exchange.hpp"
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
  return graphs;
}

// The two engines must produce bit-identical position arrays from the same
// seed — the pow2 shift and the prefetched batched loop are pure
// strength-reductions of the scalar checked path.
TEST(StepKernel, EnginesProduceIdenticalTrajectories) {
  for (const Graph& g : test_graphs()) {
    for (Laziness lazy : {Laziness::none, Laziness::half}) {
      for (std::uint64_t seed = 0; seed < 5; ++seed) {
        Rng rng_a(seed), rng_b(seed);
        std::vector<Vertex> pos_a(g.num_vertices());
        for (Vertex v = 0; v < g.num_vertices(); ++v) pos_a[v] = v;
        std::vector<Vertex> pos_b = pos_a;
        std::vector<std::uint64_t> traffic_a(g.num_edges(), 0);
        std::vector<std::uint64_t> traffic_b(g.num_edges(), 0);
        for (int round = 0; round < 20; ++round) {
          step_walks(g, pos_a, rng_a, lazy, traffic_a.data(),
                     StepEngine::batched);
          step_walks(g, pos_b, rng_b, lazy, traffic_b.data(),
                     StepEngine::scalar_checked);
        }
        EXPECT_EQ(pos_a, pos_b) << "lazy=" << (lazy == Laziness::half)
                                << " seed=" << seed;
        EXPECT_EQ(traffic_a, traffic_b);
        // Engines must also have consumed the same number of draws.
        EXPECT_EQ(rng_a(), rng_b());
      }
    }
  }
}

// Tracing must observe the walk, not perturb it: with identical seeds the
// traced and untraced kernels yield identical positions.
TEST(StepKernel, TracedAndUntracedConsumeRngIdentically) {
  for (const Graph& g : test_graphs()) {
    for (Laziness lazy : {Laziness::none, Laziness::half}) {
      Rng rng_a(7), rng_b(7);
      std::vector<Vertex> pos_a(g.num_vertices());
      for (Vertex v = 0; v < g.num_vertices(); ++v) pos_a[v] = v;
      std::vector<Vertex> pos_b = pos_a;
      std::vector<std::uint64_t> traffic(g.num_edges(), 0);
      for (int round = 0; round < 20; ++round) {
        step_walks(g, pos_a, rng_a, lazy, traffic.data());
        step_walks(g, pos_b, rng_b, lazy, nullptr);
      }
      EXPECT_EQ(pos_a, pos_b);
      EXPECT_EQ(rng_a(), rng_b());
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

// The regression test for the RNG-draw divergence bug: with Laziness::half,
// enabling edge tracing used to consume draws in a different order than the
// plain path, so the same seed simulated a different trajectory. Both paths
// now run the same kernel; rounds must match exactly.
TEST(StepKernel, TracingDoesNotChangeVisitExchangeTrajectory) {
  for (const Graph& g : test_graphs()) {
    for (LazyMode lazy : {LazyMode::never, LazyMode::always}) {
      for (std::uint64_t seed = 0; seed < 8; ++seed) {
        WalkOptions plain;
        plain.lazy = lazy;
        WalkOptions traced = plain;
        traced.trace.edge_traffic = true;
        const RunResult rp = run_visit_exchange(g, 0, seed, plain);
        const RunResult rt = run_visit_exchange(g, 0, seed, traced);
        EXPECT_EQ(rp.rounds, rt.rounds)
            << "lazy=" << static_cast<int>(lazy) << " seed=" << seed;
        EXPECT_EQ(rp.agent_rounds, rt.agent_rounds);
        EXPECT_EQ(rp.completed, rt.completed);
      }
    }
  }
}

TEST(StepKernel, TracingDoesNotChangeMeetExchangeTrajectory) {
  for (const Graph& g : test_graphs()) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      WalkOptions plain = MeetExchangeProcess::default_options();
      WalkOptions traced = plain;
      traced.trace.edge_traffic = true;
      const RunResult rp = run_meet_exchange(g, 0, seed, plain);
      const RunResult rt = run_meet_exchange(g, 0, seed, traced);
      EXPECT_EQ(rp.rounds, rt.rounds) << "seed=" << seed;
      EXPECT_EQ(rp.completed, rt.completed);
    }
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
