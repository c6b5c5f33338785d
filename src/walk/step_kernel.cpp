#include "walk/step_kernel.hpp"

#include <bit>

#include "graph/access.hpp"
#include "support/philox.hpp"
#include "support/thread_pool.hpp"

namespace rumor {

namespace {

// Two-stage prefetch pipeline for the irregular path: the offsets entry is
// prefetched kOffsetsAhead agents early; by the time the pipeline reaches
// kRowAhead it can *read* that (now cached) offset and prefetch the
// neighbor row itself, still far enough ahead to cover the cache-miss
// latency of the row. A degree-16 row of uint32 is one cache line, so one
// prefetch covers every slot the draw can pick.
constexpr std::size_t kOffsetsAhead = 16;
constexpr std::size_t kRowAhead = 4;
// Regular graphs need no offsets stage (row base = v * degree), so the row
// prefetch can run deeper.
constexpr std::size_t kRegularRowAhead = 32;

inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

// Checked scalar reference: one agent at a time through the public Graph
// API. Shares the draw helpers with the batched engine, so trajectories are
// bit-identical across engines.
template <bool kLazy, bool kTraced>
void step_scalar(const Graph& g, std::span<Vertex> positions, Rng& rng,
                 std::uint64_t* traffic) {
  for (Vertex& p : positions) {
    const Vertex v = p;
    const std::uint32_t deg = g.degree(v);
    std::uint32_t slot;
    if constexpr (kLazy) {
      if (!fused_lazy_slot(rng, deg, slot)) continue;
    } else {
      slot = word_below(rng, deg);
    }
    if constexpr (kTraced) ++traffic[g.edge_id(v, slot)];
    p = g.neighbor(v, slot);
  }
}

// Batched engine, irregular degrees: unchecked CSR, two-stage prefetch
// pipeline, Lemire slot draw (identical to Rng::below).
template <bool kLazy, bool kTraced>
void step_batched(const CsrView csr, std::span<Vertex> positions, Rng& rng,
                  std::uint64_t* traffic) {
  const std::size_t count = positions.size();
  Vertex* pos = positions.data();
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kOffsetsAhead < count) {
      prefetch(&csr.offsets[pos[i + kOffsetsAhead]]);
    }
    if (i + kRowAhead < count) {
      // offsets[pos[i + kRowAhead]] was prefetched kOffsetsAhead - kRowAhead
      // iterations ago, so this read is (almost always) an L1 hit.
      prefetch(&csr.neighbors[csr.offsets[pos[i + kRowAhead]]]);
    }
    const Vertex v = pos[i];
    const std::uint32_t off = csr.offsets[v];
    const std::uint32_t deg = csr.offsets[v + 1] - off;
    std::uint32_t slot;
    if constexpr (kLazy) {
      if (!fused_lazy_slot(rng, deg, slot)) continue;
    } else {
      slot = word_below(rng, deg);
    }
    if constexpr (kTraced) ++traffic[csr.edge_ids[off + slot]];
    pos[i] = csr.neighbors[off + slot];
  }
}

// Batched engine, regular graphs: every row starts at v * deg, so the
// offsets array is never touched — one random memory stream instead of
// two, and the row prefetch needs no pipeline stage.
template <bool kLazy, bool kTraced>
void step_batched_regular(const CsrView csr, std::uint32_t deg,
                          std::span<Vertex> positions, Rng& rng,
                          std::uint64_t* traffic) {
  const std::size_t count = positions.size();
  Vertex* pos = positions.data();
  auto body = [&](std::size_t i) {
    const Vertex v = pos[i];
    const std::uint64_t off = static_cast<std::uint64_t>(v) * deg;
    std::uint32_t slot;
    if constexpr (kLazy) {
      if (!fused_lazy_slot(rng, deg, slot)) return;
    } else {
      slot = word_below(rng, deg);
    }
    if constexpr (kTraced) ++traffic[csr.edge_ids[off + slot]];
    pos[i] = csr.neighbors[off + slot];
  };
  const std::size_t main_end =
      count > kRegularRowAhead ? count - kRegularRowAhead : 0;
  for (std::size_t i = 0; i < main_end; ++i) {
    prefetch(&csr.neighbors[static_cast<std::uint64_t>(
                                pos[i + kRegularRowAhead]) *
                            deg]);
    body(i);
  }
  for (std::size_t i = main_end; i < count; ++i) body(i);
}

// Batched engine, regular graphs with power-of-two degree: additionally,
// the Lemire draw for a pow2 bound never rejects and reduces to taking the
// top log2(deg) bits of the draw, so the slot is a shift of the same
// 64-bit word — no 128-bit multiply, no rejection branch, and bit-identical
// to the general path. This is the mask/shift fast path for the
// regular-graph bench families.
template <bool kLazy, bool kTraced>
void step_batched_regular_pow2(const CsrView csr, std::uint32_t deg,
                               std::span<Vertex> positions, Rng& rng,
                               std::uint64_t* traffic) {
  const int log2deg = std::countr_zero(deg);
  const std::size_t count = positions.size();
  Vertex* pos = positions.data();
  auto body = [&](std::size_t i) {
    const Vertex v = pos[i];
    const std::uint64_t off = static_cast<std::uint64_t>(v) << log2deg;
    const std::uint64_t x = rng();
    std::uint32_t slot;
    if constexpr (kLazy) {
      if ((x >> 63) != 0) return;  // the fused coin, as in fused_lazy_slot
      // low 63 bits, top log2(deg) of them — what the 63-bit Lemire yields.
      slot = static_cast<std::uint32_t>(((x << 1) >> 1) >> (63 - log2deg));
    } else {
      // Rng::below(2^k) == x >> (64 - k); double shift handles deg == 1.
      slot = static_cast<std::uint32_t>((x >> 1) >> (63 - log2deg));
    }
    if constexpr (kTraced) ++traffic[csr.edge_ids[off + slot]];
    pos[i] = csr.neighbors[off + slot];
  };
  // Main loop prefetches unconditionally, 4x unrolled to amortize loop
  // control around the serial RNG chain; the tail runs without prefetch.
  // Body order stays strictly ascending, so draws and trajectories are
  // unchanged.
  const std::size_t main_end =
      count > kRegularRowAhead ? count - kRegularRowAhead : 0;
  const std::size_t unrolled_end = main_end - main_end % 4;
  std::size_t i = 0;
  for (; i < unrolled_end; i += 4) {
    prefetch(&csr.neighbors[static_cast<std::uint64_t>(
                                pos[i + kRegularRowAhead])
                            << log2deg]);
    prefetch(&csr.neighbors[static_cast<std::uint64_t>(
                                pos[i + 1 + kRegularRowAhead])
                            << log2deg]);
    prefetch(&csr.neighbors[static_cast<std::uint64_t>(
                                pos[i + 2 + kRegularRowAhead])
                            << log2deg]);
    prefetch(&csr.neighbors[static_cast<std::uint64_t>(
                                pos[i + 3 + kRegularRowAhead])
                            << log2deg]);
    body(i);
    body(i + 1);
    body(i + 2);
    body(i + 3);
  }
  for (; i < main_end; ++i) {
    prefetch(&csr.neighbors[static_cast<std::uint64_t>(
                                pos[i + kRegularRowAhead])
                            << log2deg]);
    body(i);
  }
  for (; i < count; ++i) body(i);
}

// Batched engine, implicit backend: degree, neighbor, and edge id are
// closed-form arithmetic, so there is no memory stream to prefetch — the
// loop is draw-dominated. The draw helpers are shared with every other
// path (and the pow2 shift path is bit-identical to them by construction),
// so the trajectory for a seed is the same one the materialized backend
// would produce.
template <bool kLazy, bool kTraced>
void step_implicit(const ImplicitDesc& d, std::span<Vertex> positions,
                   Rng& rng, std::uint64_t* traffic) {
  const std::size_t count = positions.size();
  Vertex* pos = positions.data();
  for (std::size_t i = 0; i < count; ++i) {
    const Vertex v = pos[i];
    const std::uint32_t deg = implicit_degree(d, v);
    std::uint32_t slot;
    if constexpr (kLazy) {
      if (!fused_lazy_slot(rng, deg, slot)) continue;
    } else {
      slot = word_below(rng, deg);
    }
    if constexpr (kTraced) ++traffic[implicit_edge_id(d, v, slot)];
    pos[i] = implicit_neighbor(d, v, slot);
  }
}

// Structure-based batched dispatch: the implicit backend takes the
// arithmetic loop, regular power-of-two degrees take the shift path,
// regular degrees skip the offsets stream, everything else runs the
// two-stage prefetch pipeline.
template <bool kLazy, bool kTraced>
void dispatch_batched(const Graph& g, std::span<Vertex> positions, Rng& rng,
                      std::uint64_t* traffic) {
  if (g.is_implicit()) {
    step_implicit<kLazy, kTraced>(g.implicit_desc(), positions, rng, traffic);
  } else if (g.is_regular() && g.degrees_all_pow2()) {
    step_batched_regular_pow2<kLazy, kTraced>(g.csr(), g.min_degree(),
                                              positions, rng, traffic);
  } else if (g.is_regular()) {
    step_batched_regular<kLazy, kTraced>(g.csr(), g.min_degree(), positions,
                                         rng, traffic);
  } else {
    step_batched<kLazy, kTraced>(g.csr(), positions, rng, traffic);
  }
}

template <bool kLazy, bool kTraced>
void dispatch(const Graph& g, std::span<Vertex> positions, Rng& rng,
              std::uint64_t* traffic, StepEngine engine) {
  if (engine == StepEngine::scalar_checked) {
    step_scalar<kLazy, kTraced>(g, positions, rng, traffic);
  } else {
    dispatch_batched<kLazy, kTraced>(g, positions, rng, traffic);
  }
}

// One shard's range of the sharded step: every walker owns its addressable
// draw chain, so execution order across shards is immaterial. Templated on
// the access policy like the serial kernels (CSR loads vs closed-form
// arithmetic, resolved once per call).
template <bool kLazy, class Access>
void step_range_sharded(const Access& acc, Vertex* pos, std::size_t begin,
                        std::size_t end, const ShardPlane& plane) {
  for (std::size_t i = begin; i < end; ++i) {
    const GraphRow row = acc.row(pos[i]);
    SlotDraws draws(plane, kShardPhaseWalk, static_cast<std::uint32_t>(i));
    std::uint32_t slot;
    if constexpr (kLazy) {
      if (!fused_lazy_slot(draws, row.deg, slot)) continue;
    } else {
      slot = word_below(draws, row.deg);
    }
    pos[i] = acc.pick(row, slot);
  }
}

}  // namespace

void step_walks_sharded(const Graph& g, std::span<Vertex> positions,
                        std::uint64_t trial_seed, std::uint64_t round,
                        Laziness lazy, std::uint32_t shards) {
  RUMOR_CHECK(g.min_degree() > 0);
  const ShardPlane plane(trial_seed, round);
  Vertex* pos = positions.data();
  const bool lazy_half = lazy == Laziness::half;
  with_graph_access(g, [&](const auto& acc) {
    shard_pool().parallel_for_ranges(
        positions.size(), shards,
        [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
          if (lazy_half) {
            step_range_sharded<true>(acc, pos, begin, end, plane);
          } else {
            step_range_sharded<false>(acc, pos, begin, end, plane);
          }
        });
  });
}

void step_walks(const Graph& g, std::span<Vertex> positions, Rng& rng,
                Laziness lazy, std::uint64_t* edge_traffic,
                StepEngine engine) {
  // The single process-boundary validation the unchecked inner loops rely
  // on: a walk step is defined from every vertex, and every position a
  // simulator hands us was produced by placement or a previous step.
  RUMOR_CHECK(g.min_degree() > 0);
  const bool lazy_half = lazy == Laziness::half;
  if (edge_traffic != nullptr) {
    if (lazy_half) {
      dispatch<true, true>(g, positions, rng, edge_traffic, engine);
    } else {
      dispatch<false, true>(g, positions, rng, edge_traffic, engine);
    }
  } else {
    if (lazy_half) {
      dispatch<true, false>(g, positions, rng, nullptr, engine);
    } else {
      dispatch<false, false>(g, positions, rng, nullptr, engine);
    }
  }
}

}  // namespace rumor
