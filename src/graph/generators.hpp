// Graph generators.
//
// Families are grouped by role in the reproduction:
//  * Paper Figure-1 families (the separating examples of Section 4):
//    star, double_star, heavy_binary_tree, siamese_heavy_tree,
//    cycle_stars_cliques.
//  * Regular families for Theorems 1/10/19/23/24/25: hypercube, circulant,
//    clique_ring/clique_path (slow mixing), random_regular.
//  * Generic families for tests/examples: complete, path, cycle, trees,
//    grids, Erdős–Rényi, barbell, star_of_cliques.
//
// All generators return connected graphs and document their exact vertex
// layout so tests can address structural roles (e.g. "the star center is
// vertex 0").
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace rumor::gen {

// The random families resample until they draw a connected simple graph.
// Parameters under which that almost never happens (random_regular with
// d = 1, erdos_renyi far below the ln(n)/n threshold) would loop forever,
// so each call gives up after kMaxGraphDraws draws with this error. A
// call that succeeds within the cap consumes its RNG exactly as an
// uncapped loop would.
inline constexpr std::size_t kMaxGraphDraws = 1000;

class GraphDrawError : public std::runtime_error {
 public:
  explicit GraphDrawError(const std::string& what)
      : std::runtime_error(what) {}
};

// ---- basic families -------------------------------------------------------

// Complete graph K_n (n >= 2).
[[nodiscard]] Graph complete(Vertex n);

// Path 0-1-...-(n-1), n >= 2.
[[nodiscard]] Graph path(Vertex n);

// Cycle 0-1-...-(n-1)-0, n >= 3.
[[nodiscard]] Graph cycle(Vertex n);

// rows x cols grid, vertex (r, c) = r*cols + c; rows, cols >= 1,
// rows*cols >= 2.
[[nodiscard]] Graph grid2d(Vertex rows, Vertex cols);

// rows x cols torus (wrap-around grid); rows, cols >= 3 so the graph is
// simple (no parallel wrap edges).
[[nodiscard]] Graph torus2d(Vertex rows, Vertex cols);

// Two cliques of size k joined by a single bridge edge (2k vertices).
// Vertices [0,k) form clique A, [k,2k) clique B; bridge is (k-1, k).
[[nodiscard]] Graph barbell(Vertex k);

// ---- tree-like families ---------------------------------------------------

// Star S_n: center 0, leaves 1..n (n+1 vertices total, n >= 2 leaves).
// Paper Fig. 1(a).
[[nodiscard]] Graph star(Vertex leaves);

// Double star S2_n (paper Fig. 1(b)): two stars with `leaves` leaves each,
// centers adjacent. Layout: center A = 0, center B = 1, A's leaves
// [2, 2+leaves), B's leaves [2+leaves, 2+2*leaves).
[[nodiscard]] Graph double_star(Vertex leaves);

// Complete (balanced) binary tree with n vertices in heap layout: vertex i
// has children 2i+1, 2i+2. n >= 1.
[[nodiscard]] Graph balanced_binary_tree(Vertex n);

// ---- paper Figure-1 composite families -------------------------------------

// Heavy binary tree B_n (paper Fig. 1(c)): balanced binary tree with n
// vertices in heap layout plus a clique over its leaves. The leaves are the
// heap positions [n/2, n) (ceil(n/2) of them); the root is vertex 0.
// Requires n >= 4.
[[nodiscard]] Graph heavy_binary_tree(Vertex n);

// Siamese heavy binary trees D_n (paper Fig. 1(d)): two copies of
// heavy_binary_tree(n) sharing a single merged root. The root is vertex 0;
// copy 0 occupies [1, n), copy 1 occupies [n, 2n-1) (heap positions shift).
// Total 2n-1 vertices. Requires n >= 4.
[[nodiscard]] Graph siamese_heavy_tree(Vertex n);

// Cycle of stars of cliques (paper Fig. 1(e)) with parameter k (= n^{1/3} in
// the paper): a cycle of k hub vertices c_i; each hub has k star leaves
// l_{i,j}; each leaf is joined to a k-clique q_{i,j,*} and to every vertex
// of that clique. Total k + k^2 + k^3 vertices. Requires k >= 3.
// Layout: hubs [0, k); leaves [k, k + k^2) with l_{i,j} = k + i*k + j;
// clique vertices follow, q_{i,j,*} contiguous.
[[nodiscard]] Graph cycle_stars_cliques(Vertex k);

// Star of cliques: a hub vertex 0 connected to one vertex of each of
// `cliques` disjoint k-cliques (used in tests/examples as a non-regular
// tree-of-dense-parts family).
[[nodiscard]] Graph star_of_cliques(Vertex cliques, Vertex k);

// ---- regular families -------------------------------------------------------

// Hypercube Q_dim: n = 2^dim vertices, vertex ids are bitstrings, edges
// between ids at Hamming distance 1. dim >= 1. (log2(n)-regular.)
[[nodiscard]] Graph hypercube(std::uint32_t dim);

// Circulant graph C_n(1..k): vertex i adjacent to i +- j (mod n) for
// j = 1..k. 2k-regular, vertex-transitive, connected. Requires n >= 2k+2
// (keeps the graph simple).
[[nodiscard]] Graph circulant(Vertex n, std::uint32_t k);

// Ring of `groups` cliques of size k (groups >= 3, k >= 2): each group is a
// k-clique; group g is joined to group g+1 (mod groups) by a perfect
// matching. Exactly (k+1)-regular and slow-mixing (the paper's "path of
// d-cliques" made regular by closing the ring).
[[nodiscard]] Graph clique_ring(Vertex groups, Vertex k);

// Path variant of the above (end groups have degree k, interior k+1);
// "path of d-cliques" from the paper's discussion of Theorem 1.
[[nodiscard]] Graph clique_path(Vertex groups, Vertex k);

// ---- random families --------------------------------------------------------

// Random d-regular simple graph via the configuration model with edge-swap
// repair of self-loops/multi-edges. n*d must be even, d < n. The result is
// approximately uniform (the deviation is documented in docs/perf.md,
// "Law-preserving optimizations") and is rejected and resampled if
// disconnected (connectivity is overwhelmingly likely for d >= 3). Throws
// GraphDrawError after kMaxGraphDraws draws.
[[nodiscard]] Graph random_regular(Vertex n, std::uint32_t d, Rng& rng);

// Erdős–Rényi G(n, p) conditioned on connectivity: resamples until
// connected. Intended for p noticeably above the ln(n)/n threshold; throws
// GraphDrawError after kMaxGraphDraws draws.
[[nodiscard]] Graph erdos_renyi_connected(Vertex n, double p, Rng& rng);

}  // namespace rumor::gen
