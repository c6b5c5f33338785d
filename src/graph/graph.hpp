// Immutable undirected graph behind one accessor API, three storage backends.
//
// This is the substrate every protocol runs on. Design points:
//  * Vertices are dense uint32 ids [0, n).
//  * Three backends (see GraphBackend):
//      - owned: in-RAM CSR arrays, built from an edge list (GraphBuilder
//        and the generators produce these).
//      - implicit: star/cycle/complete/grid/torus/circulant synthesize
//        degree and neighbors arithmetically from an ImplicitDesc — O(1)
//        memory at any n (see graph/implicit.hpp).
//      - mapped: CSR arrays borrowed from an external owner, typically a
//        memory-mapped cache file (see graph/file_graph.hpp); a shared
//        keep-alive handle pins the mapping.
//    Owned and mapped graphs share one layout: offsets, neighbors and
//    fwd_offsets (see CsrView).
//    Copies are cheap: owned and mapped storage is shared, never deep-copied.
//  * Adjacency enumerates in sorted order on every backend: neighbor lists
//    ascending, which makes structural tests exact and deterministic, and —
//    because the implicit closed forms reproduce the same order — keeps
//    seeded trajectories byte-identical across backends.
//  * Undirected edges are numbered densely in [0, m) by the lexicographic
//    rank of their (min, max) endpoint pair; edge_endpoints(e) maps a
//    number back to its pair on every backend (sharded stationary
//    placement draws an edge number plus an endpoint bit and reads the
//    vertex through it).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "graph/implicit.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace rumor {

using Vertex = std::uint32_t;
using EdgeId = std::uint32_t;

constexpr Vertex kNoVertex = 0xFFFFFFFFu;

enum class GraphBackend : std::uint8_t {
  owned,     // in-RAM CSR vectors
  implicit,  // arithmetic adjacency, no arrays
  mapped,    // borrowed CSR arrays (mmap'd cache file)
};

[[nodiscard]] constexpr const char* graph_backend_name(GraphBackend b) {
  switch (b) {
    case GraphBackend::owned: return "owned-csr";
    case GraphBackend::implicit: return "implicit";
    case GraphBackend::mapped: return "mmap-csr";
  }
  return "?";
}

// Structural flags derived from a whole-graph traversal, memoized per graph
// (see Graph::properties()). Deriving options from these — notably
// LazyMode::auto_bipartite — costs O(1) per trial instead of a BFS.
// Implicit and mapped graphs arrive with the answers precomputed.
struct GraphProperties {
  bool connected = false;  // empty graph counts as NOT connected
  bool bipartite = false;  // empty graph is vacuously two-colorable
  bool regular = false;
  bool degrees_all_pow2 = false;
};

// Borrowed raw view of a graph's CSR arrays for batched kernels that have
// already validated their inputs at the process boundary. Lifetime is tied
// to the owning Graph. Only materialized backends (owned, mapped) have one;
// implicit graphs dispatch through graph/access.hpp instead.
struct CsrView {
  const std::uint32_t* offsets;      // n + 1 entries
  const Vertex* neighbors;           // 2m entries, sorted per vertex
  const std::uint32_t* fwd_offsets;  // n + 1: # edges with min < u
  Vertex n;
};

// Payload handed to Graph::from_external by the mapped backend: borrowed
// CSR arrays plus the precomputed structural summary the cache stores, and
// a keep-alive handle that owns the arrays (the mapping).
struct ExternalCsr {
  const std::uint32_t* offsets = nullptr;      // n + 1
  const Vertex* neighbors = nullptr;           // 2m, sorted per vertex
  const std::uint32_t* fwd_offsets = nullptr;  // n + 1: # edges with min < u
  Vertex n = 0;
  std::uint64_t m = 0;
  std::uint32_t min_degree = 0;
  std::uint32_t max_degree = 0;
  bool degrees_all_pow2 = false;
  GraphProperties props;
  std::shared_ptr<const void> keep_alive;
};

class Graph {
 public:
  // Constructs an owned-CSR graph from an undirected edge list, in any
  // order and orientation; the arrays depend on the edge set alone.
  // Requires: no self loops, no duplicate edges (in either orientation),
  // endpoints < num_vertices. Prefer GraphBuilder, which validates and
  // reports good errors.
  Graph(Vertex num_vertices, std::span<const std::pair<Vertex, Vertex>> edges);

  // Implicit backend: adjacency synthesized from the family closed forms.
  // `desc` must come from make_implicit_desc (kind != none).
  [[nodiscard]] static Graph make_implicit(const ImplicitDesc& desc);

  // Mapped backend: adjacency borrowed from `ext` (typically an mmap'd
  // cache file pinned by ext.keep_alive).
  [[nodiscard]] static Graph from_external(ExternalCsr ext);

  [[nodiscard]] GraphBackend backend() const { return backend_; }
  [[nodiscard]] bool is_implicit() const {
    return backend_ == GraphBackend::implicit;
  }
  // Valid only when is_implicit(); kernels dispatch on it via
  // graph/access.hpp.
  [[nodiscard]] const ImplicitDesc& implicit_desc() const { return implicit_; }

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] std::size_t num_edges() const { return m_; }

  [[nodiscard]] std::uint32_t degree(Vertex v) const {
    RUMOR_CHECK(v < n_);
    return degree_unchecked(v);
  }

  // Sorted neighbor list of v. Materialized backends only — implicit
  // graphs have no array to span; enumerate via neighbor(v, i) instead.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    RUMOR_CHECK(v < n_);
    RUMOR_CHECK(offsets_p_ != nullptr);
    return {neighbors_p_ + offsets_p_[v], neighbors_p_ + offsets_p_[v + 1]};
  }

  // i-th neighbor of v (i < degree(v)); lists enumerate ascending.
  [[nodiscard]] Vertex neighbor(Vertex v, std::uint32_t i) const {
    RUMOR_CHECK(i < degree(v));
    return neighbor_unchecked(v, i);
  }

  // Endpoints (u, v) with u < v of undirected edge e in [0, num_edges()),
  // edges ranked by their (u, v) pair, so ascending e enumerates the pairs
  // in lexicographic order. O(log n): owned and mapped graphs binary-search
  // fwd_offsets, implicit graphs their closed forms.
  [[nodiscard]] std::pair<Vertex, Vertex> edge_endpoints(EdgeId e) const;

  // Uniform random neighbor of v; requires degree(v) > 0. This is the single
  // primitive all four protocols are built from.
  [[nodiscard]] Vertex random_neighbor(Vertex v, Rng& rng) const {
    const std::uint32_t deg = degree(v);
    RUMOR_CHECK(deg > 0);
    return neighbor_unchecked(v, static_cast<std::uint32_t>(rng.below(deg)));
  }

  // ---- Unchecked hot-path kernels -------------------------------------
  //
  // Identical semantics to the checked accessors above minus the
  // RUMOR_CHECK bounds branches, for inner loops that have validated their
  // arguments once at the process boundary (every vertex a simulator holds
  // is < n by construction). The checked accessors remain the public API;
  // these exist so per-step costs are loads and arithmetic only. The
  // backend test is a single perfectly predicted branch; kernels that want
  // it hoisted out of the loop entirely dispatch an access policy once per
  // round via graph/access.hpp. Each random_* variant consumes the RNG
  // exactly like its checked twin, so switching paths (or backends) cannot
  // change a seeded trajectory.

  [[nodiscard]] std::uint32_t degree_unchecked(Vertex v) const {
    if (backend_ == GraphBackend::implicit) {
      return implicit_degree(implicit_, v);
    }
    return offsets_p_[v + 1] - offsets_p_[v];
  }

  // Materialized backends only, like neighbors().
  [[nodiscard]] std::span<const Vertex> neighbors_unchecked(Vertex v) const {
    return {neighbors_p_ + offsets_p_[v], neighbors_p_ + offsets_p_[v + 1]};
  }

  [[nodiscard]] Vertex neighbor_unchecked(Vertex v, std::uint32_t i) const {
    if (backend_ == GraphBackend::implicit) {
      return implicit_neighbor(implicit_, v, i);
    }
    return neighbors_p_[offsets_p_[v] + i];
  }

  [[nodiscard]] Vertex random_neighbor_unchecked(Vertex v, Rng& rng) const {
    if (backend_ == GraphBackend::implicit) {
      return implicit_neighbor(
          implicit_, v,
          static_cast<std::uint32_t>(rng.below(implicit_degree(implicit_, v))));
    }
    const std::uint32_t lo = offsets_p_[v];
    return neighbors_p_[lo + rng.below(offsets_p_[v + 1] - lo)];
  }

  // Raw CSR arrays for the batched walk kernel. Materialized backends only;
  // implicit graphs take the access-policy path (graph/access.hpp).
  [[nodiscard]] CsrView csr() const {
    RUMOR_CHECK(offsets_p_ != nullptr);
    return {offsets_p_, neighbors_p_, fwd_offsets_p_, n_};
  }

  // True iff every degree is a (positive) power of two — the regular-graph
  // bench families — enabling the shift-based neighbor-draw fast path.
  [[nodiscard]] bool degrees_all_pow2() const { return degrees_all_pow2_; }

  // Process-unique id (monotone across all Graph constructions), used to
  // key per-graph caches safely across graph rebuilds at recycled
  // addresses.
  [[nodiscard]] std::uint64_t uid() const { return uid_; }

  // True iff {u, v} is an edge. O(log degree) by binary search.
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  // Sum of degrees == 2m. Kept as a method because the stationary
  // distribution of the simple random walk is deg(v) / (2m).
  [[nodiscard]] std::uint64_t total_degree() const { return 2 * m_; }

  [[nodiscard]] std::uint32_t min_degree() const { return min_degree_; }
  [[nodiscard]] std::uint32_t max_degree() const { return max_degree_; }
  [[nodiscard]] bool is_regular() const { return min_degree_ == max_degree_; }

  // Memoized structural properties. For owned graphs the first call runs
  // one BFS 2-coloring (computing connectivity and bipartiteness together);
  // implicit and mapped graphs are born with the answers, so every call is
  // O(1) and allocation-free — this is what makes per-trial option
  // resolution (LazyMode::auto_bipartite) free in the hot path. Thread-safe
  // (call_once); copies of a Graph share the cache.
  [[nodiscard]] const GraphProperties& properties() const;

  // True iff properties() has already been computed (assertable by tests
  // that require the per-trial path to be a pure cache hit).
  [[nodiscard]] bool properties_cached() const;

 private:
  struct PropertyState;  // once_flag + the computed GraphProperties

  Graph() = default;  // backends fill the fields via the static factories

  void assign_uid();
  void prefill_properties(const GraphProperties& props);

  GraphBackend backend_ = GraphBackend::owned;
  ImplicitDesc implicit_{};  // kind == none unless backend_ == implicit
  Vertex n_ = 0;
  std::uint64_t m_ = 0;
  // Borrowed views into payload_ (owned backend) or an external mapping
  // pinned by payload_ (mapped backend); all null for implicit.
  const std::uint32_t* offsets_p_ = nullptr;      // n+1 entries
  const Vertex* neighbors_p_ = nullptr;           // 2m, sorted
  const std::uint32_t* fwd_offsets_p_ = nullptr;  // n+1
  std::uint32_t min_degree_ = 0;
  std::uint32_t max_degree_ = 0;
  bool degrees_all_pow2_ = false;
  std::uint64_t uid_ = 0;
  // Owns the arrays the pointers above borrow; shared (not deep-copied) so
  // copies of an immutable graph alias one storage block.
  std::shared_ptr<const void> payload_;
  // Shared (not deep-copied) so copies of an immutable graph reuse one
  // computation; pointer identity never leaks into results.
  std::shared_ptr<PropertyState> property_state_;
};

}  // namespace rumor
