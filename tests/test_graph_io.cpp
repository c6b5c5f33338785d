// Graph input and output: a generated graph written as plain "u v" lines
// (what examples/custom_graph writes) loads back identically through
// load_file_graph, and the DOT export has the expected shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "graph/file_graph.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace rumor {
namespace {

TEST(GraphIo, RoundTripPreservesStructure) {
  Rng rng(4);
  const Graph original = gen::random_regular(50, 6, rng);
  const std::string path = ::testing::TempDir() + "/rumor_io_round_trip.txt";
  {
    std::ofstream out(path);
    for (EdgeId e = 0; e < original.num_edges(); ++e) {
      const auto [u, v] = original.edge_endpoints(e);
      out << u << ' ' << v << '\n';
    }
  }
  const Graph loaded = load_file_graph(path);
  ASSERT_EQ(loaded.num_vertices(), original.num_vertices());
  ASSERT_EQ(loaded.num_edges(), original.num_edges());
  for (Vertex v = 0; v < original.num_vertices(); ++v) {
    const auto a = original.neighbors(v);
    const auto b = loaded.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
  std::remove(file_graph_cache_path(path).c_str());
  std::remove(path.c_str());
}

TEST(GraphIo, DotExportShape) {
  std::ostringstream out;
  export_dot(gen::path(3), out, "P3");
  const std::string dot = out.str();
  EXPECT_EQ(dot.find("graph P3 {"), 0u);
  EXPECT_NE(dot.find("0 -- 1;"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2;"), std::string::npos);
  EXPECT_NE(dot.find("}"), std::string::npos);
}

}  // namespace
}  // namespace rumor
