// Sharded placement laws: the round-0 `Place` pass of the sharded engine
// (AgentSystem with a nonzero ShardedPlacement width) against the laws the
// paper's protocols assume — stationary π(v) = deg(v)/2|E| on the owned,
// implicit and mapped backends, uniform 1/n — plus the exact placements
// and width independence.
//
// The law checks are Pearson chi-square goodness-of-fit tests over every
// vertex, with fixed seeds. Each accepts the statistic within ±5 standard
// normal deviates of its chi-square(df) law (Wilson–Hilferty cube-root
// approximation), so a correct sampler on a random seed fails one check
// with probability about 6e-7; the lower bound catches a too-perfect fit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "experiments/specs.hpp"
#include "graph/file_graph.hpp"
#include "graph/generators.hpp"
#include "walk/agents.hpp"

namespace rumor {
namespace {

constexpr std::size_t kAgents = std::size_t{1} << 18;
constexpr std::uint32_t kWidth = 4;
constexpr double kSigmas = 5.0;

std::vector<Vertex> place(const Graph& g, std::size_t count,
                          Placement placement, std::uint64_t seed,
                          std::uint32_t width, Vertex anchor = 0) {
  Rng unused(0);
  const AgentSystem agents(g, count, placement, unused, anchor, nullptr,
                           ShardedPlacement{seed, width});
  return {agents.positions().begin(), agents.positions().end()};
}

// Chi-square quantile at `z` standard normal deviates (Wilson–Hilferty).
double chi_square_quantile(double df, double z) {
  const double c = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - c + z * std::sqrt(c), 3.0);
}

// Pearson goodness of fit of the occupancy of `positions` against the
// per-vertex probabilities `p` (every p[v] > 0).
void expect_law(const Graph& g, const std::vector<Vertex>& positions,
                const std::vector<double>& p, const std::string& what) {
  std::vector<std::uint64_t> observed(g.num_vertices(), 0);
  for (const Vertex v : positions) ++observed[v];
  const auto draws = static_cast<double>(positions.size());
  double chi2 = 0.0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const double expected = draws * p[v];
    ASSERT_GE(expected, 5.0) << what << ": too few draws per cell";
    const double d = static_cast<double>(observed[v]) - expected;
    chi2 += d * d / expected;
  }
  const double df = g.num_vertices() - 1.0;
  EXPECT_LT(chi2, chi_square_quantile(df, kSigmas)) << what;
  EXPECT_GT(chi2, chi_square_quantile(df, -kSigmas)) << what;
}

void expect_stationary_law(const Graph& g, std::uint64_t seed,
                           const std::string& what) {
  std::vector<double> p(g.num_vertices());
  const auto two_m = static_cast<double>(g.total_degree());
  for (Vertex v = 0; v < g.num_vertices(); ++v) p[v] = g.degree(v) / two_m;
  expect_law(g, place(g, kAgents, Placement::stationary, seed, kWidth), p,
             what);
}

TEST(ShardPlacementLaw, StationaryFollowsDegreeLawOnOwnedGraphs) {
  // Irregular owned CSRs: two hubs of degree 256 among 510 leaves, and a
  // heavy tree whose degrees range over 1..n/2.
  const Graph double_star = gen::double_star(255);
  const Graph heavy = gen::heavy_binary_tree(255);
  ASSERT_EQ(double_star.backend(), GraphBackend::owned);
  ASSERT_EQ(heavy.backend(), GraphBackend::owned);
  expect_stationary_law(double_star, 11, "double_star(255)");
  expect_stationary_law(heavy, 12, "heavy_binary_tree(255)");
}

TEST(ShardPlacementLaw, StationaryFollowsDegreeLawOnImplicitStar) {
  const auto spec = GraphSpec::parse("star(leaves=1023)");
  ASSERT_TRUE(spec);
  Rng rng(1);
  const Graph star = spec->make(rng);
  ASSERT_TRUE(star.is_implicit());
  expect_stationary_law(star, 13, "implicit star(1023)");
}

TEST(ShardPlacementLaw, StationaryFollowsDegreeLawOnMappedFile) {
  // The heavy tree's edge list, loaded through the file: backend (an
  // mmap'd .rcsr cache, whose edge_endpoints binary-searches offsets).
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("rumor_walk_placement_" +
                        std::to_string(::testing::UnitTest::GetInstance()
                                           ->random_seed()));
  fs::create_directories(dir);
  const Graph source = gen::heavy_binary_tree(255);
  const std::string path = (dir / "heavy.txt").string();
  {
    std::ofstream out(path);
    for (EdgeId e = 0; e < source.num_edges(); ++e) {
      const auto [u, v] = source.edge_endpoints(e);
      out << u << ' ' << v << '\n';
    }
  }
  {
    const Graph mapped = load_file_graph(path);
    ASSERT_EQ(mapped.backend(), GraphBackend::mapped);
    ASSERT_EQ(mapped.num_edges(), source.num_edges());
    expect_stationary_law(mapped, 14, "file: heavy_binary_tree(255)");
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(ShardPlacementLaw, UniformFollowsUniformLaw) {
  const Graph g = gen::heavy_binary_tree(255);
  const std::vector<double> p(g.num_vertices(), 1.0 / g.num_vertices());
  expect_law(g, place(g, kAgents, Placement::uniform, 15, kWidth), p,
             "uniform on heavy_binary_tree(255)");
}

TEST(ShardPlacementLaw, OnePerVertexAndAtVertexAreExact) {
  const Graph g = gen::double_star(40);
  for (const std::uint32_t width : {1u, 3u, 4u, 7u}) {
    const auto one = place(g, g.num_vertices(), Placement::one_per_vertex,
                           16, width);
    for (Vertex a = 0; a < g.num_vertices(); ++a) ASSERT_EQ(one[a], a);
    const auto at = place(g, 1000, Placement::at_vertex, 16, width, 7);
    for (const Vertex v : at) ASSERT_EQ(v, 7u);
  }
}

TEST(ShardPlacementLaw, PositionsIndependentOfWidth) {
  // Agent a draws from its own Place chain, so the width only partitions
  // the work.
  const Graph g = gen::heavy_binary_tree(127);
  for (const Placement placement :
       {Placement::stationary, Placement::uniform}) {
    const auto ref = place(g, 5000, placement, 17, 1);
    for (const std::uint32_t width : {2u, 4u, 7u}) {
      EXPECT_EQ(place(g, 5000, placement, 17, width), ref)
          << "width " << width;
    }
    EXPECT_NE(place(g, 5000, placement, 18, 1), ref) << "seed ignored";
  }
}

}  // namespace
}  // namespace rumor
