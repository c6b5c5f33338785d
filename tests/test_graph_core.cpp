// Graph (CSR) and GraphBuilder invariant tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace rumor {
namespace {

Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  return b.build();
}

TEST(Graph, TriangleBasics) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.total_degree(), 6u);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.min_degree(), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, NeighborsAreSorted) {
  GraphBuilder b(6);
  b.add_edge(3, 5);
  b.add_edge(3, 1);
  b.add_edge(3, 4);
  b.add_edge(3, 0);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(Graph, HasEdgeBothDirections) {
  const Graph g = triangle();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g2 = b.build();
  EXPECT_FALSE(g2.has_edge(0, 2));
  EXPECT_FALSE(g2.has_edge(1, 3));
}

// edge_endpoints numbers the edges by their sorted (min, max) pairs:
// over e in [0, m) it returns strictly increasing pairs, each an edge with
// u < v, so it lists every edge exactly once. Sharded stationary placement
// maps a drawn slot to a vertex through this numbering.
void expect_edge_endpoints_sorted(const Graph& g) {
  std::pair<Vertex, Vertex> prev{0, 0};
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const std::pair<Vertex, Vertex> uv = g.edge_endpoints(e);
    EXPECT_LT(uv.first, uv.second) << "e=" << e;
    EXPECT_TRUE(g.has_edge(uv.first, uv.second)) << "e=" << e;
    if (e > 0) EXPECT_LT(prev, uv) << "e=" << e;
    prev = uv;
  }
}

TEST(Graph, EdgeEndpointsListEdgesInSortedOrder) {
  expect_edge_endpoints_sorted(triangle());
  GraphBuilder star(9);
  for (Vertex v = 1; v < 9; ++v) star.add_edge(v, 0);
  expect_edge_endpoints_sorted(star.build());
  Rng rng(3);
  const Graph regular = gen::random_regular(64, 5, rng);
  expect_edge_endpoints_sorted(regular);
  // The owned build numbers edges the same way whatever the input order
  // and orientation.
  std::vector<std::pair<Vertex, Vertex>> reversed;
  for (EdgeId e = regular.num_edges(); e-- > 0;) {
    const auto [u, v] = regular.edge_endpoints(e);
    reversed.emplace_back(v, u);
  }
  expect_edge_endpoints_sorted(Graph(regular.num_vertices(), reversed));
}

TEST(Graph, RandomNeighborIsAlwaysAdjacent) {
  GraphBuilder b(8);
  for (Vertex v = 1; v < 8; ++v) b.add_edge(0, v);
  const Graph g = b.build();
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const Vertex v = g.random_neighbor(0, rng);
    EXPECT_GE(v, 1u);
    EXPECT_LT(v, 8u);
  }
  for (int i = 0; i < 50; ++i) EXPECT_EQ(g.random_neighbor(3, rng), 0u);
}

TEST(Graph, RandomNeighborUniformity) {
  GraphBuilder b(5);
  for (Vertex v = 1; v < 5; ++v) b.add_edge(0, v);
  const Graph g = b.build();
  Rng rng(17);
  std::vector<int> counts(5, 0);
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) ++counts[g.random_neighbor(0, rng)];
  for (Vertex v = 1; v < 5; ++v) {
    EXPECT_NEAR(counts[v], kDraws / 4.0, 5 * std::sqrt(kDraws / 4.0));
  }
}

TEST(Builder, AddEdgeOnceDeduplicates) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge_once(1, 0);  // duplicate in reverse orientation
  b.add_edge_once(1, 2);
  b.add_edge_once(2, 1);  // duplicate
  EXPECT_EQ(b.num_edges(), 2u);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Builder, AddClique) {
  GraphBuilder b(5);
  const std::vector<Vertex> members{1, 2, 4};
  b.add_clique(members);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(1, 4));
  EXPECT_TRUE(g.has_edge(2, 4));
  EXPECT_EQ(g.degree(0), 0u);
}

using GraphDeathTest = ::testing::Test;

TEST(GraphDeathTest, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_DEATH(b.add_edge(1, 1), "precondition");
}

TEST(GraphDeathTest, RejectsOutOfRange) {
  GraphBuilder b(3);
  EXPECT_DEATH(b.add_edge(0, 3), "precondition");
}

TEST(GraphDeathTest, RejectsDuplicateAtBuild) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  EXPECT_DEATH((void)b.build(), "precondition");
}

// The edge-list constructor validates without GraphBuilder's help.
TEST(GraphDeathTest, ConstructorRejectsInvalidEdgeLists) {
  using Edges = std::vector<std::pair<Vertex, Vertex>>;
  EXPECT_DEATH((void)Graph(3, Edges{{1, 1}}), "precondition");
  EXPECT_DEATH((void)Graph(3, Edges{{0, 3}}), "precondition");
  EXPECT_DEATH((void)Graph(3, Edges{{0, 1}, {0, 1}}), "precondition");
  // A reversed repeat in a row the build has to sort: 0's row is 3, 1, 3.
  EXPECT_DEATH((void)Graph(4, Edges{{0, 3}, {0, 1}, {3, 0}}), "precondition");
}

}  // namespace
}  // namespace rumor
