#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>

#include "support/thread_pool.hpp"

namespace rumor {

struct Graph::PropertyState {
  std::once_flag once;
  std::atomic<bool> ready{false};
  GraphProperties props;
};

namespace {

// Backing store for the owned backend; shared by copies via payload_.
struct OwnedCsr {
  std::vector<std::uint32_t> offsets;                 // n+1 entries
  std::vector<Vertex> neighbors;                      // 2m, sorted per vertex
  std::vector<std::pair<Vertex, Vertex>> edge_list;   // m entries, u < v
};

// Backing store for the sharded build path. Raw arrays instead of vectors:
// vector::resize zero-fills every page on the allocating thread, which
// would defeat NUMA first-touch placement — make_unique_for_overwrite
// leaves the CSR pages untouched until the per-shard passes write them.
struct ShardedCsr {
  std::unique_ptr<std::uint32_t[]> offsets;                // n+1 entries
  std::unique_ptr<Vertex[]> neighbors;                     // 2m, sorted
  std::unique_ptr<std::pair<Vertex, Vertex>[]> edge_list;  // m, u < v
};

// Edge lists at or above this size build through the sharded path when the
// public constructor picks the width (explicit build_owned widths are never
// overridden). Matches the spirit of kShardAutoThreshold: only graphs big
// enough that page placement and sort time matter pay the fan-out.
constexpr std::size_t kShardedBuildEdgeThreshold = std::size_t{1} << 22;

// Deterministic parallel sort: per-shard std::sort over the shard_range
// chunks, then log2(width) levels of pairwise in-place merges. The result
// is THE sorted order (comparison keys are unique in both uses), so the
// output is independent of width and worker count by construction.
template <class T>
void sharded_sort(ThreadPool& pool, T* data, std::size_t count,
                  std::uint32_t width) {
  std::vector<std::size_t> cur(width + 1);
  for (std::uint32_t s = 0; s < width; ++s) {
    cur[s] = ThreadPool::shard_range(count, width, s).first;
  }
  cur[width] = count;
  pool.parallel_for_ranges(
      width, width, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          std::sort(data + cur[j], data + cur[j + 1]);
        }
      });
  while (cur.size() > 2) {
    const std::size_t runs = cur.size() - 1;
    const std::size_t pairs = runs / 2;
    pool.parallel_for_ranges(
        pairs, pairs, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t q = begin; q < end; ++q) {
            std::inplace_merge(data + cur[2 * q], data + cur[2 * q + 1],
                               data + cur[2 * q + 2]);
          }
        });
    std::vector<std::size_t> next;
    next.reserve(pairs + 2);
    for (std::size_t q = 0; q <= pairs; ++q) next.push_back(cur[2 * q]);
    if (runs % 2 != 0) next.push_back(count);
    cur = std::move(next);
  }
}

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

Graph::Graph(Vertex num_vertices,
             std::span<const std::pair<Vertex, Vertex>> edges) {
  // Auto width: huge edge lists build sharded over the ambient pool (the
  // first shard_pool() call constructs the global pool — acceptable at
  // this size, the build itself dwarfs it); everything else stays serial
  // and never touches the pool.
  std::uint32_t width = 1;
  if (edges.size() >= kShardedBuildEdgeThreshold) {
    width = static_cast<std::uint32_t>(shard_pool().worker_count());
  }
  init_owned(num_vertices, edges, width);
}

Graph Graph::build_owned(Vertex num_vertices,
                         std::span<const std::pair<Vertex, Vertex>> edges,
                         std::uint32_t shards) {
  Graph g;
  g.init_owned(num_vertices, edges, std::max<std::uint32_t>(shards, 1));
  return g;
}

void Graph::init_owned(Vertex num_vertices,
                       std::span<const std::pair<Vertex, Vertex>> edges,
                       std::uint32_t build_width) {
  n_ = num_vertices;
  m_ = edges.size();
  property_state_ = std::make_shared<PropertyState>();
  // The empty graph (no vertices, no edges) is representable so property
  // queries have a well-defined answer; simulators still require a valid
  // source vertex and therefore reject it.
  RUMOR_REQUIRE(num_vertices > 0 || edges.empty());
  RUMOR_REQUIRE(edges.size() < std::numeric_limits<EdgeId>::max() / 2);
  if (build_width > 1 && !edges.empty()) {
    build_owned_sharded(edges, build_width);
  } else {
    build_owned_serial(edges);
  }
}

void Graph::build_owned_serial(std::span<const std::pair<Vertex, Vertex>> edges) {
  auto owned = std::make_shared<OwnedCsr>();
  owned->edge_list.reserve(m_);
  owned->offsets.assign(static_cast<std::size_t>(n_) + 1, 0);
  auto& offsets = owned->offsets;
  auto& edge_list = owned->edge_list;

  for (const auto& [u, v] : edges) {
    RUMOR_REQUIRE(u < n_ && v < n_);
    RUMOR_REQUIRE(u != v);  // no self loops
    edge_list.emplace_back(std::min(u, v), std::max(u, v));
    ++offsets[u + 1];
    ++offsets[v + 1];
  }

  // Canonical edge order: sort endpoint pairs; also detects duplicates.
  std::sort(edge_list.begin(), edge_list.end());
  for (std::size_t e = 1; e < edge_list.size(); ++e) {
    RUMOR_REQUIRE(edge_list[e] != edge_list[e - 1]);  // no multi-edges
  }

  for (std::size_t v = 0; v < n_; ++v) offsets[v + 1] += offsets[v];

  owned->neighbors.resize(2 * m_);
  auto& neighbors = owned->neighbors;
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edge_list) {
    neighbors[cursor[u]++] = v;
    neighbors[cursor[v]++] = u;
  }

  // With edge_list sorted by (u, v) and u < v, each vertex w receives its
  // back-neighbors (all < w) before its forward-neighbors (all > w), each
  // group ascending — so lists are already sorted and this insertion sort
  // runs in linear time. It is kept as a guard so the sortedness invariant
  // holds even if the fill order above changes.
  for (Vertex v = 0; v < n_; ++v) {
    const std::uint32_t lo = offsets[v];
    const std::uint32_t hi = offsets[v + 1];
    for (std::uint32_t i = lo + 1; i < hi; ++i) {
      const Vertex nv = neighbors[i];
      std::uint32_t j = i;
      while (j > lo && neighbors[j - 1] > nv) {
        neighbors[j] = neighbors[j - 1];
        --j;
      }
      neighbors[j] = nv;
    }
  }

  offsets_p_ = offsets.data();
  neighbors_p_ = neighbors.data();
  edge_list_p_ = edge_list.data();
  payload_ = std::move(owned);
  finish_owned_build(offsets_p_);
}

// Sharded owned-CSR build: every pass fans the same shard_range partition
// the round kernels use over shard_pool(), so shard s first-touches exactly
// the offset/neighbor row range it will later step — on a NUMA
// machine the pages land on the worker's node instead of all on the
// allocating thread's. The arrays are byte-identical to the serial build
// for every width: the sorted edge order and the sorted (v, u) reverse
// order are unique total orders, and the serial fill emits each row as
// [back-neighbors ascending][forward-neighbors ascending] — exactly the
// two runs the per-row pass concatenates.
void Graph::build_owned_sharded(
    std::span<const std::pair<Vertex, Vertex>> edges, std::uint32_t shards) {
  ThreadPool& pool = shard_pool();
  const std::size_t m = edges.size();
  const std::size_t n = n_;
  const std::uint32_t width = shards;

  auto owned = std::make_shared<ShardedCsr>();
  owned->offsets = std::make_unique_for_overwrite<std::uint32_t[]>(n + 1);
  owned->neighbors = std::make_unique_for_overwrite<Vertex[]>(2 * m);
  owned->edge_list =
      std::make_unique_for_overwrite<std::pair<Vertex, Vertex>[]>(m);
  auto* el = owned->edge_list.get();
  auto* off = owned->offsets.get();
  auto* nbr = owned->neighbors.get();

  // Validate + normalize to (min, max), parallel over the input order.
  pool.parallel_for_ranges(
      m, width, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto [u, v] = edges[i];
          RUMOR_REQUIRE(u < n_ && v < n_);
          RUMOR_REQUIRE(u != v);  // no self loops
          el[i] = {std::min(u, v), std::max(u, v)};
        }
      });

  // Canonical edge order (the edge_endpoints numbering), then the
  // duplicate check parallelized over adjacent pairs.
  sharded_sort(pool, el, m, width);
  pool.parallel_for_ranges(
      m - 1, width, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          RUMOR_REQUIRE(el[i + 1] != el[i]);  // no multi-edges
        }
      });

  // Reverse index sorted by (v, u): row w's back-neighbors (u < w,
  // ascending) become one contiguous run per vertex. Keys pack (v, u) into
  // one uint64; pairs are unique, so the order is deterministic.
  auto rev = std::make_unique_for_overwrite<std::uint64_t[]>(m);
  pool.parallel_for_ranges(
      m, width, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t e = begin; e < end; ++e) {
          rev[e] = (static_cast<std::uint64_t>(el[e].second) << 32) |
                   el[e].first;
        }
      });
  sharded_sort(pool, rev.get(), m, width);

  // Per-row degrees, written by the owning shard (this is the first touch
  // of the offsets pages). Each shard binary-searches its vertex range's
  // run starts once, then walks both sorted arrays linearly.
  const auto fwd_start = [&](Vertex v) {
    return static_cast<std::size_t>(
        std::lower_bound(el, el + m, std::pair<Vertex, Vertex>{v, 0}) - el);
  };
  const auto back_start = [&](Vertex v) {
    return static_cast<std::size_t>(
        std::lower_bound(rev.get(), rev.get() + m,
                         static_cast<std::uint64_t>(v) << 32) -
        rev.get());
  };
  off[0] = 0;
  pool.parallel_for_ranges(
      n, width, [&](std::size_t, std::size_t begin, std::size_t end) {
        std::size_t e = fwd_start(static_cast<Vertex>(begin));
        std::size_t r = back_start(static_cast<Vertex>(begin));
        for (std::size_t v = begin; v < end; ++v) {
          std::uint32_t d = 0;
          while (e < m && el[e].first == v) {
            ++e;
            ++d;
          }
          while (r < m && (rev[r] >> 32) == v) {
            ++r;
            ++d;
          }
          off[v + 1] = d;
        }
      });
  for (std::size_t v = 0; v < n; ++v) off[v + 1] += off[v];

  // Row fill, same partition: shard s writes (first-touches) exactly the
  // neighbor range its round kernels will read.
  pool.parallel_for_ranges(
      n, width, [&](std::size_t, std::size_t begin, std::size_t end) {
        std::size_t e = fwd_start(static_cast<Vertex>(begin));
        std::size_t r = back_start(static_cast<Vertex>(begin));
        for (std::size_t v = begin; v < end; ++v) {
          std::uint32_t c = off[v];
          while (r < m && (rev[r] >> 32) == v) {
            nbr[c++] = static_cast<Vertex>(rev[r++] & 0xFFFFFFFFu);
          }
          while (e < m && el[e].first == v) nbr[c++] = el[e++].second;
        }
      });

  offsets_p_ = off;
  neighbors_p_ = nbr;
  edge_list_p_ = el;
  payload_ = std::move(owned);
  finish_owned_build(offsets_p_);
}

void Graph::finish_owned_build(const std::uint32_t* offsets) {
  min_degree_ = n_ > 0 ? std::numeric_limits<std::uint32_t>::max() : 0;
  max_degree_ = 0;
  degrees_all_pow2_ = n_ > 0;
  for (Vertex v = 0; v < n_; ++v) {
    const std::uint32_t d = offsets[v + 1] - offsets[v];
    min_degree_ = std::min(min_degree_, d);
    max_degree_ = std::max(max_degree_, d);
    degrees_all_pow2_ = degrees_all_pow2_ && d > 0 && (d & (d - 1)) == 0;
  }
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
  switch (backend_) {
    case GraphBackend::owned:
      return edge_list_p_[e];
    case GraphBackend::implicit:
      return implicit_edge_endpoints(implicit_, e);
    case GraphBackend::mapped: {
      // Owner u: the unique vertex with fwd_offsets[u] <= e <
      // fwd_offsets[u+1]; its forward neighbors sit after its
      // back-neighbors in the sorted row.
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
  }
  return {0u, 0u};
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
