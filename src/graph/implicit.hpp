// Implicit graph families: adjacency synthesized arithmetically, O(1) memory.
//
// Six deterministic families — star, cycle, complete, grid, torus, circulant
// — have closed forms for degree(v), the i-th sorted neighbor, and the
// endpoints of the e-th edge in lexicographic (min, max) order. An
// ImplicitDesc captures the family parameters plus every derived structural
// fact (n, m, degree range, connectivity, bipartiteness), so a Graph backed
// by a desc answers the full accessor API without materializing a single
// adjacency array.
//
// Equivalence contract (pinned by tests/test_graph_backend.cpp): for every
// family and every valid parameter choice, the implicit accessors agree
// slot-for-slot with the materialized generator output — neighbor lists
// enumerate in sorted CSR order, and edge e's endpoints are the e-th pair
// of the sorted edge list, exactly as Graph::edge_endpoints numbers the
// owned backend's edges. That identity is what keeps seeded trajectories
// (and therefore every golden sample) byte-identical across backends.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace rumor {

enum class ImplicitKind : std::uint8_t {
  none,  // not an implicit graph
  star,
  cycle,
  complete,
  grid,
  torus,
  circulant,
};

// Family parameters plus analytically derived structure. Construct only via
// make_implicit_desc, which validates the same preconditions the
// materialized generators assert.
struct ImplicitDesc {
  ImplicitKind kind = ImplicitKind::none;
  std::uint32_t n = 0;   // vertex count
  std::uint64_t m = 0;   // undirected edge count
  std::uint32_t p = 0;   // star: leaves; cycle/complete/circulant: n;
                         // grid/torus: rows
  std::uint32_t q = 0;   // grid/torus: cols; circulant: k
  std::uint32_t min_degree = 0;
  std::uint32_t max_degree = 0;
  bool degrees_all_pow2 = false;
  bool connected = false;
  bool bipartite = false;
};

// Fills `out` for the family, mirroring the generator preconditions
// (star leaves >= 2; cycle n >= 3; complete n >= 2; grid rows, cols >= 1 and
// rows * cols >= 2; torus rows, cols >= 3; circulant k >= 1 and n >= 2k + 2)
// plus the owned backend's representation limits (n fits Vertex, and
// m < 2^31 - 1 so the 2m directed slots fit 32-bit arithmetic).
// Returns false and explains in *error (if non-null) on violation.
bool make_implicit_desc(ImplicitKind kind, std::uint64_t a, std::uint64_t b,
                        ImplicitDesc& out, std::string* error = nullptr);

// ---- Hot-path arithmetic accessors ------------------------------------
//
// All take v < n and i < degree(v); violations are undefined exactly like
// the owned backend's *_unchecked accessors. Each family's neighbor list is
// enumerated ascending: back-neighbors (< v) first, then forward neighbors,
// matching the sorted order the CSR constructor produces.

namespace implicit_detail {

// star: center 0, leaves 1..L.
inline std::uint32_t star_degree(const ImplicitDesc& d, std::uint32_t v) {
  return v == 0 ? d.p : 1u;
}
inline std::uint32_t star_neighbor(std::uint32_t v, std::uint32_t i) {
  return v == 0 ? i + 1 : 0u;
}

// cycle over n >= 3 vertices; edges in sorted order: {0,1}, {0,n-1}, then
// {v,v+1} at rank v+1 for v >= 1.
inline std::uint32_t cycle_neighbor(const ImplicitDesc& d, std::uint32_t v,
                                    std::uint32_t i) {
  const std::uint32_t n = d.p;
  if (v == 0) return i == 0 ? 1u : n - 1;
  if (v == n - 1) return i == 0 ? 0u : n - 2;
  return i == 0 ? v - 1 : v + 1;
}

// complete graph on n >= 2 vertices.
inline std::uint64_t complete_fwd_offset(const ImplicitDesc& d,
                                         std::uint64_t u) {
  // # edges whose min endpoint < u: sum_{t<u} (n-1-t).
  return u * (2 * static_cast<std::uint64_t>(d.p) - u - 1) / 2;
}
inline std::uint32_t complete_neighbor(std::uint32_t v, std::uint32_t i) {
  return i < v ? i : i + 1;
}

// grid rows x cols, vertex id r * cols + c, edges right and down.
inline std::uint32_t grid_degree(const ImplicitDesc& d, std::uint32_t v) {
  const std::uint32_t r = v / d.q;
  const std::uint32_t c = v - r * d.q;
  return static_cast<std::uint32_t>((r > 0) + (r + 1 < d.p) + (c > 0) +
                                    (c + 1 < d.q));
}
inline std::uint32_t grid_neighbor(const ImplicitDesc& d, std::uint32_t v,
                                   std::uint32_t i) {
  const std::uint32_t C = d.q;
  const std::uint32_t r = v / C;
  const std::uint32_t c = v - r * C;
  std::uint32_t idx = i;
  if (r > 0) {
    if (idx == 0) return v - C;
    --idx;
  }
  if (c > 0) {
    if (idx == 0) return v - 1;
    --idx;
  }
  if (c + 1 < C && idx == 0) return v + 1;
  return v + C;  // i < degree(v) guarantees r + 1 < rows here
}
inline std::uint64_t grid_fwd_offset(const ImplicitDesc& d, std::uint64_t u) {
  // Horizontal edges with min < u plus vertical edges with min < u; the
  // vertical min set is every vertex off the last row.
  const std::uint64_t C = d.q;
  const std::uint64_t r = u / C;
  const std::uint64_t c = u - r * C;
  const std::uint64_t vcap = static_cast<std::uint64_t>(d.p - 1) * C;
  return r * (C - 1) + c + (u < vcap ? u : vcap);
}

// torus rows x cols with rows, cols >= 3 (all wrap diffs distinct).
inline std::uint32_t torus_neighbor(const ImplicitDesc& d, std::uint32_t v,
                                    std::uint32_t i) {
  const std::uint32_t R = d.p;
  const std::uint32_t C = d.q;
  const std::uint32_t r = v / C;
  const std::uint32_t c = v - r * C;
  std::uint32_t a = (r == 0 ? R - 1 : r - 1) * C + c;   // up (wrapped)
  std::uint32_t b = (r + 1 == R ? 0 : r + 1) * C + c;   // down (wrapped)
  std::uint32_t x = r * C + (c == 0 ? C - 1 : c - 1);   // left (wrapped)
  std::uint32_t y = r * C + (c + 1 == C ? 0 : c + 1);   // right (wrapped)
  // Sorting network on 4 distinct values; yields a <= b <= x <= y.
  if (a > b) std::swap(a, b);
  if (x > y) std::swap(x, y);
  if (a > x) std::swap(a, x);
  if (b > y) std::swap(b, y);
  if (b > x) std::swap(b, x);
  switch (i) {
    case 0: return a;
    case 1: return b;
    case 2: return x;
    default: return y;
  }
}
inline std::uint64_t torus_fwd_offset(const ImplicitDesc& d, std::uint64_t u) {
  // Horizontal mins before u: C per full row, and within row r the wrap edge
  // shares min r*C with the first regular edge. Vertical mins: every vertex
  // off the last row once, plus the first row again for the wrap edges.
  const std::uint64_t C = d.q;
  const std::uint64_t r = u / C;
  const std::uint64_t c = u - r * C;
  const std::uint64_t vcap = static_cast<std::uint64_t>(d.p - 1) * C;
  return r * C + c + (c > 0 ? 1 : 0) + (u < vcap ? u : vcap) +
         (u < C ? u : C);
}

// circulant C_n(1..k) with n >= 2k + 2: v adjacent to v +- j (mod n).
inline std::uint32_t circulant_neighbor(const ImplicitDesc& d, std::uint32_t v,
                                        std::uint32_t i) {
  const std::uint32_t n = d.p;
  const std::uint32_t k = d.q;
  if (v >= k) {
    if (v < n - k) {  // no wraparound on either side
      return i < k ? v - k + i : v + 1 + (i - k);
    }
    // High band: wrapped forward neighbors come first (they are smallest).
    const std::uint32_t wrap = v + k - n + 1;  // values 0 .. v+k-n
    if (i < wrap) return i;
    if (i < wrap + k) return v - k + (i - wrap);
    return v + 1 + (i - wrap - k);
  }
  // Low band: back-neighbors 0..v-1, then v+1..v+k, then wrapped backs.
  if (i < v) return i;
  const std::uint32_t t = i - v;
  if (t < k) return v + 1 + t;
  return n - k + v + (t - k);
}
inline std::uint64_t circulant_fwd_offset(const ImplicitDesc& d,
                                          std::uint64_t u) {
  const std::uint64_t n = d.p;
  const std::uint64_t k = d.q;
  const std::uint64_t f_k = 2 * k * k - k * (k - 1) / 2;  // offset at u == k
  if (u <= k) return 2 * k * u - u * (u - 1) / 2;
  if (u <= n - k) return f_k + (u - k) * k;
  const std::uint64_t t = u - (n - k);
  return f_k + (n - 2 * k) * k + t * (k - 1) - t * (t - 1) / 2;
}
inline std::uint32_t circulant_fwd_neighbor(const ImplicitDesc& d,
                                            std::uint32_t u,
                                            std::uint32_t rank) {
  const std::uint32_t n = d.p;
  const std::uint32_t k = d.q;
  if (u < n - k) return rank < k ? u + 1 + rank : n - k + u + (rank - k);
  return u + 1 + rank;
}

}  // namespace implicit_detail

inline std::uint32_t implicit_degree(const ImplicitDesc& d, std::uint32_t v) {
  switch (d.kind) {
    case ImplicitKind::star: return implicit_detail::star_degree(d, v);
    case ImplicitKind::cycle: return 2;
    case ImplicitKind::complete: return d.p - 1;
    case ImplicitKind::grid: return implicit_detail::grid_degree(d, v);
    case ImplicitKind::torus: return 4;
    case ImplicitKind::circulant: return 2 * d.q;
    case ImplicitKind::none: break;
  }
  return 0;
}

inline std::uint32_t implicit_neighbor(const ImplicitDesc& d, std::uint32_t v,
                                       std::uint32_t i) {
  switch (d.kind) {
    case ImplicitKind::star: return implicit_detail::star_neighbor(v, i);
    case ImplicitKind::cycle: return implicit_detail::cycle_neighbor(d, v, i);
    case ImplicitKind::complete:
      return implicit_detail::complete_neighbor(v, i);
    case ImplicitKind::grid: return implicit_detail::grid_neighbor(d, v, i);
    case ImplicitKind::torus: return implicit_detail::torus_neighbor(d, v, i);
    case ImplicitKind::circulant:
      return implicit_detail::circulant_neighbor(d, v, i);
    case ImplicitKind::none: break;
  }
  return 0;
}

// Endpoints (u, v) with u < v of edge e: binary search on the monotone
// forward-offset curve, then index the owner's forward list. O(log n).
std::pair<std::uint32_t, std::uint32_t> implicit_edge_endpoints(
    const ImplicitDesc& d, std::uint32_t e);

// True iff {u, v} is an edge; O(log degree) via the sorted neighbor list.
bool implicit_has_edge(const ImplicitDesc& d, std::uint32_t u,
                       std::uint32_t v);

}  // namespace rumor
