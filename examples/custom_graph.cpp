// Run the four protocols on a user-supplied graph.
//
// Usage:
//   custom_graph <edge-list-file> [source] [trials]
//   custom_graph --demo            (writes a demo graph and analyzes it)
//
// Edge-list format: SNAP-style lines "u v" with arbitrary 64-bit vertex
// ids; '#' starts a comment, blank lines and duplicate edges are skipped,
// self loops are an error. Ids are compacted to 0..n-1 in ascending
// order (`source` names a compacted id), and the parsed graph is cached
// beside the file as <file>.rcsr (see graph/file_graph.hpp).
// Prints structural properties, a protocol comparison, and a DOT rendering
// path for small graphs.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/meet_exchange.hpp"
#include "core/push.hpp"
#include "core/push_pull.hpp"
#include "core/visit_exchange.hpp"
#include "graph/file_graph.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace rumor;

int analyze(const Graph& g, Vertex source, int trials) {
  if (!is_connected(g)) {
    std::fprintf(stderr,
                 "error: graph is disconnected; broadcast cannot complete\n");
    return 1;
  }
  const auto deg = degree_stats(g);
  std::printf("graph: n=%u m=%zu degree[min=%u mean=%.1f max=%u]%s%s\n",
              g.num_vertices(), g.num_edges(), deg.min, deg.mean, deg.max,
              g.is_regular() ? " regular" : "",
              is_bipartite(g) ? " bipartite" : "");
  std::printf("source: %u, trials: %d\n\n", source, trials);
  if (is_bipartite(g)) {
    std::printf(
        "note: bipartite graph — meet-exchange runs with lazy walks (the\n"
        "paper's §3 convention), other protocols unaffected.\n\n");
  }

  TextTable table({"protocol", "mean", "min", "median", "max"});
  auto add = [&](const std::string& name, auto&& runner) {
    std::vector<double> samples;
    for (int seed = 0; seed < trials; ++seed) {
      const RunResult r = runner(g, source, std::uint64_t(seed));
      if (!r.completed) {
        std::fprintf(stderr, "warning: %s hit the round cutoff\n",
                     name.c_str());
      }
      samples.push_back(double(r.rounds));
    }
    const Summary s = Summary::of(samples);
    table.add_row({name, TextTable::num(s.mean, 1), TextTable::num(s.min, 0),
                   TextTable::num(s.median, 1), TextTable::num(s.max, 0)});
  };
  add("push", [](const Graph& g2, Vertex s, std::uint64_t seed) {
    return run_push(g2, s, seed);
  });
  add("push-pull", [](const Graph& g2, Vertex s, std::uint64_t seed) {
    return run_push_pull(g2, s, seed);
  });
  add("visit-exchange", [](const Graph& g2, Vertex s, std::uint64_t seed) {
    return run_visit_exchange(g2, s, seed);
  });
  add("meet-exchange", [](const Graph& g2, Vertex s, std::uint64_t seed) {
    return run_meet_exchange(g2, s, seed);
  });
  std::printf("%s\n", table.render_plain().c_str());

  if (g.num_vertices() <= 64) {
    const char* dot_path = "custom_graph.dot";
    std::ofstream dot(dot_path);
    export_dot(g, dot);
    std::printf("wrote %s (render with: dot -Tpng %s -o graph.png)\n",
                dot_path, dot_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rumor;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <edge-list-file> [source] [trials]\n"
                 "       %s --demo\n",
                 argv[0], argv[0]);
    return 2;
  }

  try {
    if (std::string(argv[1]) == "--demo") {
      const char* path = "demo_barbell.edges";
      {
        const Graph demo = gen::barbell(12);
        std::ofstream out(path);
        for (EdgeId e = 0; e < demo.num_edges(); ++e) {
          const auto [u, v] = demo.edge_endpoints(e);
          out << u << ' ' << v << '\n';
        }
        if (!out) throw std::runtime_error("cannot write " + std::string(path));
      }
      std::printf("wrote demo graph to %s\n\n", path);
      return analyze(load_file_graph(path), 0, 20);
    }
    const Graph g = load_file_graph(argv[1]);
    const Vertex source =
        argc > 2 ? static_cast<Vertex>(std::strtoul(argv[2], nullptr, 10))
                 : 0;
    if (source >= g.num_vertices()) {
      std::fprintf(stderr, "error: source %u out of range (n=%u)\n", source,
                   g.num_vertices());
      return 2;
    }
    const int trials =
        argc > 3 ? static_cast<int>(std::strtol(argv[3], nullptr, 10)) : 20;
    if (trials < 1) {
      std::fprintf(stderr, "error: trials must be positive\n");
      return 2;
    }
    return analyze(g, source, trials);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
