// Random graph generators.
#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "support/spec_text.hpp"

namespace rumor::gen {

namespace {

[[nodiscard]] std::uint64_t edge_key(Vertex u, Vertex v) {
  const auto lo = static_cast<std::uint64_t>(std::min(u, v));
  const auto hi = static_cast<std::uint64_t>(std::max(u, v));
  return (hi << 32) | lo;
}

// One configuration-model draw followed by edge-swap repair. Returns edges
// of a simple graph, or an empty vector if repair stalled (caller restarts).
std::vector<std::pair<Vertex, Vertex>> pairing_with_repair(Vertex n,
                                                           std::uint32_t d,
                                                           Rng& rng) {
  std::vector<Vertex> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * d);
  for (Vertex v = 0; v < n; ++v) {
    for (std::uint32_t i = 0; i < d; ++i) stubs.push_back(v);
  }
  // Fisher-Yates shuffle, then pair consecutive stubs.
  for (std::size_t i = stubs.size() - 1; i > 0; --i) {
    std::swap(stubs[i], stubs[rng.below(i + 1)]);
  }

  const std::size_t m = stubs.size() / 2;
  std::vector<std::pair<Vertex, Vertex>> edges(m);
  std::unordered_map<std::uint64_t, std::uint32_t> multiplicity;
  multiplicity.reserve(m * 2);
  for (std::size_t e = 0; e < m; ++e) {
    edges[e] = {stubs[2 * e], stubs[2 * e + 1]};
    ++multiplicity[edge_key(edges[e].first, edges[e].second)];
  }

  auto is_bad = [&](std::size_t e) {
    const auto [u, v] = edges[e];
    return u == v || multiplicity[edge_key(u, v)] > 1;
  };

  std::vector<std::size_t> bad;
  for (std::size_t e = 0; e < m; ++e) {
    if (is_bad(e)) bad.push_back(e);
  }

  // Repair by random edge swaps: take a bad edge (u,v) and a uniformly
  // random partner edge (x,y); replace with (u,x),(v,y). Accept only if both
  // replacements are simple. Each accepted swap strictly reduces the
  // multiset of violations with high probability; a stall cap triggers a
  // full restart so the loop always terminates.
  std::size_t attempts = 0;
  const std::size_t max_attempts = 200 * (bad.size() + 1) + 10000;
  while (!bad.empty()) {
    if (++attempts > max_attempts) return {};
    const std::size_t bi = bad.size() - 1;
    const std::size_t e = bad[bi];
    if (!is_bad(e)) {  // repaired as a side effect of an earlier swap
      bad.pop_back();
      continue;
    }
    const std::size_t partner = rng.below(m);
    if (partner == e) continue;
    auto [u, v] = edges[e];
    auto [x, y] = edges[partner];
    if (rng.coin()) std::swap(x, y);  // both swap orientations reachable

    if (u == x || v == y) continue;  // would create self loops
    const std::uint64_t new1 = edge_key(u, x);
    const std::uint64_t new2 = edge_key(v, y);
    // Count the would-be multiplicities after removal of the two old edges.
    auto mult_after_removal = [&](std::uint64_t key) {
      std::uint32_t c = 0;
      if (auto it = multiplicity.find(key); it != multiplicity.end()) {
        c = it->second;
      }
      if (key == edge_key(edges[e].first, edges[e].second)) --c;
      if (key == edge_key(edges[partner].first, edges[partner].second)) --c;
      return c;
    };
    if (mult_after_removal(new1) > 0) continue;
    if (new2 != new1 && mult_after_removal(new2) > 0) continue;
    if (new1 == new2) continue;  // the two replacements would duplicate

    // Apply the swap.
    auto decrement = [&](Vertex a, Vertex b) {
      auto it = multiplicity.find(edge_key(a, b));
      RUMOR_CHECK(it != multiplicity.end() && it->second > 0);
      --it->second;
    };
    decrement(edges[e].first, edges[e].second);
    decrement(edges[partner].first, edges[partner].second);
    edges[e] = {u, x};
    edges[partner] = {v, y};
    ++multiplicity[new1];
    ++multiplicity[new2];
    if (!is_bad(e)) bad.pop_back();
    if (is_bad(partner)) bad.push_back(partner);
  }
  return edges;
}

}  // namespace

Graph random_regular(Vertex n, std::uint32_t d, Rng& rng) {
  RUMOR_REQUIRE(n >= 2);
  RUMOR_REQUIRE(d >= 1 && d < n);
  RUMOR_REQUIRE((static_cast<std::uint64_t>(n) * d) % 2 == 0);

  for (std::size_t draw = 0; draw < kMaxGraphDraws; ++draw) {
    auto edges = pairing_with_repair(n, d, rng);
    if (edges.empty()) continue;  // repair stalled; redraw
    Graph g(n, edges);
    // d >= 3 random regular graphs are connected w.h.p.; resample the rare
    // exceptions (and the common ones for d <= 2) so callers always get a
    // usable broadcast substrate.
    if (is_connected(g)) return g;
  }
  throw GraphDrawError("random_regular(n=" + std::to_string(n) +
                       ",d=" + std::to_string(d) + "): no connected draw in " +
                       std::to_string(kMaxGraphDraws) + " attempts");
}

Graph erdos_renyi_connected(Vertex n, double p, Rng& rng) {
  RUMOR_REQUIRE(n >= 2);
  RUMOR_REQUIRE(p > 0.0 && p <= 1.0);

  for (std::size_t draw = 0; draw < kMaxGraphDraws; ++draw) {
    GraphBuilder b(n);
    // Geometric skipping over the linearized strictly-upper-triangular pair
    // index space: O(m + n) per draw instead of O(n^2).
    const double log1mp = std::log1p(-p);
    // Geometric(p) number of skipped pairs before the next present edge.
    auto gap = [&]() -> std::uint64_t {
      if (p >= 1.0) return 0;
      const double u = rng.uniform01();
      return static_cast<std::uint64_t>(std::log1p(-u) / log1mp);
    };
    const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
    Vertex row = 0;
    std::uint64_t row_start = 0;  // linear index of pair (row, row+1)
    for (std::uint64_t idx = gap(); idx < total; idx += 1 + gap()) {
      // Advance to the row containing idx.
      while (idx >= row_start + (n - 1 - row)) {
        row_start += n - 1 - row;
        ++row;
      }
      const auto col = static_cast<Vertex>(row + 1 + (idx - row_start));
      b.add_edge(row, col);
    }
    Graph g = b.build();
    if (is_connected(g)) return g;
  }
  throw GraphDrawError("erdos_renyi(n=" + std::to_string(n) +
                       ",p=" + spec_text::fmt_double(p) +
                       "): no connected draw in " +
                       std::to_string(kMaxGraphDraws) + " attempts");
}

}  // namespace rumor::gen
