#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>

namespace rumor {

struct Graph::PropertyState {
  std::once_flag once;
  std::atomic<bool> ready{false};
  GraphProperties props;
};

namespace {

// Backing store for the owned backend; shared by copies via payload_. The
// same three arrays a mapped .rcsr cache holds.
struct OwnedCsr {
  std::vector<std::uint32_t> offsets;      // n+1 entries
  std::vector<Vertex> neighbors;           // 2m, sorted per vertex
  std::vector<std::uint32_t> fwd_offsets;  // n+1: # edges with min < u
};

}  // namespace

void Graph::assign_uid() {
  static std::atomic<std::uint64_t> next_uid{1};
  uid_ = next_uid.fetch_add(1, std::memory_order_relaxed);
}

void Graph::prefill_properties(const GraphProperties& props) {
  property_state_ = std::make_shared<PropertyState>();
  PropertyState& state = *property_state_;
  std::call_once(state.once, [&] {
    state.props = props;
    state.ready.store(true, std::memory_order_release);
  });
}

// Counting build: degrees, then a scatter of each edge into both rows,
// then a per-row pass that sorts (only rows the input order left unsorted),
// rejects repeats and counts forward neighbors. Each row ends as its sorted
// neighbor set whatever the input order or orientation, so the arrays are
// a function of the edge set alone. Edge lists in (min, max) order — the
// file parser's and most generators' — leave every row sorted.
Graph::Graph(Vertex num_vertices,
             std::span<const std::pair<Vertex, Vertex>> edges)
    : n_(num_vertices),
      m_(edges.size()),
      property_state_(std::make_shared<PropertyState>()) {
  // The empty graph (no vertices, no edges) is representable so property
  // queries have a well-defined answer; simulators still require a valid
  // source vertex and therefore reject it.
  RUMOR_REQUIRE(num_vertices > 0 || edges.empty());
  RUMOR_REQUIRE(edges.size() < std::numeric_limits<EdgeId>::max() / 2);
  auto owned = std::make_shared<OwnedCsr>();
  auto& offsets = owned->offsets;
  auto& neighbors = owned->neighbors;
  auto& fwd = owned->fwd_offsets;

  offsets.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (const auto& [u, v] : edges) {
    RUMOR_REQUIRE(u < n_ && v < n_);
    RUMOR_REQUIRE(u != v);  // no self loops
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (std::size_t v = 0; v < n_; ++v) offsets[v + 1] += offsets[v];

  neighbors.resize(2 * m_);
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    neighbors[cursor[u]++] = v;
    neighbors[cursor[v]++] = u;
  }

  fwd.assign(offsets.size(), 0);
  min_degree_ = n_ > 0 ? std::numeric_limits<std::uint32_t>::max() : 0;
  degrees_all_pow2_ = n_ > 0;
  for (Vertex v = 0; v < n_; ++v) {
    Vertex* const row = neighbors.data() + offsets[v];
    Vertex* const row_end = neighbors.data() + offsets[v + 1];
    if (!std::is_sorted(row, row_end)) std::sort(row, row_end);
    // No multi-edges: a repeat in either orientation is adjacent now.
    RUMOR_REQUIRE(std::adjacent_find(row, row_end) == row_end);
    fwd[v + 1] = fwd[v] + static_cast<std::uint32_t>(
                              row_end - std::upper_bound(row, row_end, v));
    const auto d = static_cast<std::uint32_t>(row_end - row);
    min_degree_ = std::min(min_degree_, d);
    max_degree_ = std::max(max_degree_, d);
    degrees_all_pow2_ = degrees_all_pow2_ && d > 0 && (d & (d - 1)) == 0;
  }

  offsets_p_ = offsets.data();
  neighbors_p_ = neighbors.data();
  fwd_offsets_p_ = fwd.data();
  payload_ = std::move(owned);
  assign_uid();
}

Graph Graph::make_implicit(const ImplicitDesc& desc) {
  RUMOR_REQUIRE(desc.kind != ImplicitKind::none);
  RUMOR_REQUIRE(desc.n > 0);
  Graph g;
  g.backend_ = GraphBackend::implicit;
  g.implicit_ = desc;
  g.n_ = desc.n;
  g.m_ = desc.m;
  g.min_degree_ = desc.min_degree;
  g.max_degree_ = desc.max_degree;
  g.degrees_all_pow2_ = desc.degrees_all_pow2;
  GraphProperties props;
  props.connected = desc.connected;
  props.bipartite = desc.bipartite;
  props.regular = desc.min_degree == desc.max_degree;
  props.degrees_all_pow2 = desc.degrees_all_pow2;
  g.prefill_properties(props);
  g.assign_uid();
  return g;
}

Graph Graph::from_external(ExternalCsr ext) {
  RUMOR_REQUIRE(ext.offsets != nullptr && ext.neighbors != nullptr &&
                ext.fwd_offsets != nullptr);
  RUMOR_REQUIRE(ext.m < std::numeric_limits<EdgeId>::max() / 2);
  Graph g;
  g.backend_ = GraphBackend::mapped;
  g.n_ = ext.n;
  g.m_ = ext.m;
  g.offsets_p_ = ext.offsets;
  g.neighbors_p_ = ext.neighbors;
  g.fwd_offsets_p_ = ext.fwd_offsets;
  g.min_degree_ = ext.min_degree;
  g.max_degree_ = ext.max_degree;
  g.degrees_all_pow2_ = ext.degrees_all_pow2;
  g.payload_ = std::move(ext.keep_alive);
  g.prefill_properties(ext.props);
  g.assign_uid();
  return g;
}

std::pair<Vertex, Vertex> Graph::edge_endpoints(EdgeId e) const {
  RUMOR_CHECK(e < m_);
  if (backend_ == GraphBackend::implicit) {
    return implicit_edge_endpoints(implicit_, e);
  }
  // Owner u: the unique vertex with fwd_offsets[u] <= e < fwd_offsets[u+1];
  // its forward neighbors sit after its back-neighbors in the sorted row.
  Vertex lo = 0;
  Vertex hi = n_ - 1;
  while (lo < hi) {
    const Vertex mid = lo + (hi - lo) / 2;
    if (fwd_offsets_p_[mid + 1] > e) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::uint32_t deg = offsets_p_[lo + 1] - offsets_p_[lo];
  const std::uint32_t fwd = fwd_offsets_p_[lo + 1] - fwd_offsets_p_[lo];
  const std::uint32_t back = deg - fwd;
  const Vertex v =
      neighbors_p_[offsets_p_[lo] + back + (e - fwd_offsets_p_[lo])];
  return {lo, v};
}

const GraphProperties& Graph::properties() const {
  RUMOR_CHECK(property_state_ != nullptr);  // not moved-from
  PropertyState& state = *property_state_;
  std::call_once(state.once, [&] {
    GraphProperties p;
    p.regular = is_regular();
    p.degrees_all_pow2 = degrees_all_pow2_;
    // One BFS pass computes connectivity (all vertices reached from vertex
    // 0) and bipartiteness (2-coloring across every component) together.
    // 2 = uncolored; the scratch is allocated once per graph, never per
    // trial. Only owned graphs land here — implicit and mapped backends
    // prefill the state at construction.
    std::vector<std::uint8_t> color(n_, 2);
    std::vector<Vertex> queue;
    queue.reserve(n_);
    p.bipartite = true;
    std::size_t reached_from_zero = 0;
    for (Vertex start = 0; start < n_; ++start) {
      if (color[start] != 2) continue;
      color[start] = 0;
      queue.push_back(start);
      std::size_t head = 0;
      while (head < queue.size()) {
        const Vertex u = queue[head++];
        const std::uint32_t deg = degree_unchecked(u);
        for (std::uint32_t i = 0; i < deg; ++i) {
          const Vertex v = neighbor_unchecked(u, i);
          if (color[v] == 2) {
            color[v] = color[u] ^ 1;
            queue.push_back(v);
          } else if (color[v] == color[u]) {
            p.bipartite = false;
          }
        }
      }
      if (start == 0) reached_from_zero = queue.size();
      queue.clear();
    }
    // Convention: a single vertex is connected, the empty graph is not.
    p.connected = n_ > 0 && reached_from_zero == n_;
    state.props = p;
    state.ready.store(true, std::memory_order_release);
  });
  return state.props;
}

bool Graph::properties_cached() const {
  return property_state_ != nullptr &&
         property_state_->ready.load(std::memory_order_acquire);
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  RUMOR_REQUIRE(u < n_ && v < n_);
  // Binary search the sorted neighbor list of u; neighbor_unchecked makes
  // this backend-generic (implicit lists are synthesized, still sorted).
  std::uint32_t lo = 0;
  std::uint32_t hi = degree_unchecked(u);
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const Vertex w = neighbor_unchecked(u, mid);
    if (w == v) return true;
    if (w < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

}  // namespace rumor
