#include "walk/walk_stats.hpp"

#include <vector>

namespace rumor {

std::uint64_t cover_time_once(const Graph& g, Vertex start, Rng& rng,
                              Laziness lazy, std::uint64_t cutoff) {
  RUMOR_REQUIRE(start < g.num_vertices());
  RUMOR_REQUIRE(cutoff > 0);
  std::vector<std::uint8_t> visited(g.num_vertices(), 0);
  visited[start] = 1;
  std::size_t seen = 1;
  Vertex pos = start;
  for (std::uint64_t t = 1; t <= cutoff; ++t) {
    pos = step_from(g, pos, rng, lazy);
    if (visited[pos] == 0) {
      visited[pos] = 1;
      if (++seen == g.num_vertices()) return t;
    }
  }
  return cutoff;
}

std::uint64_t hitting_time_once(const Graph& g, Vertex start, Vertex target,
                                Rng& rng, Laziness lazy,
                                std::uint64_t cutoff) {
  RUMOR_REQUIRE(start < g.num_vertices() && target < g.num_vertices());
  RUMOR_REQUIRE(cutoff > 0);
  if (start == target) return 0;
  Vertex pos = start;
  for (std::uint64_t t = 1; t <= cutoff; ++t) {
    pos = step_from(g, pos, rng, lazy);
    if (pos == target) return t;
  }
  return cutoff;
}

std::uint64_t meeting_time_once(const Graph& g, Vertex a, Vertex b, Rng& rng,
                                Laziness lazy, std::uint64_t cutoff) {
  RUMOR_REQUIRE(a < g.num_vertices() && b < g.num_vertices());
  RUMOR_REQUIRE(cutoff > 0);
  if (a == b) return 0;
  for (std::uint64_t t = 1; t <= cutoff; ++t) {
    a = step_from(g, a, rng, lazy);
    b = step_from(g, b, rng, lazy);
    if (a == b) return t;
  }
  return cutoff;
}

}  // namespace rumor
