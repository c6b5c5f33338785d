#include "walk/step_kernel.hpp"

#include <bit>

#include "graph/access.hpp"
#include "support/philox.hpp"
#include "support/thread_pool.hpp"

namespace rumor {

namespace {

// Prefetch pipelines for the irregular path. Both prefetch the offsets
// entry kOffsetsAhead agents early. The lazy loop then reads that (now
// cached) offset kRowAhead agents early and prefetches the first line of
// the neighbor row. The non-lazy loop draws each agent's slot kDrawAhead
// agents before it stores the new position and prefetches the drawn
// entry itself: a clique member's row spans 512-1,024 entries (2-4 KB),
// so the row's first line almost never holds the neighbor it picks.
constexpr std::size_t kOffsetsAhead = 16;
constexpr std::size_t kRowAhead = 4;
// 16 read no faster than 8 on the heavy and Siamese trees.
constexpr std::size_t kDrawAhead = 8;
// Regular graphs need no offsets stage (row base = v * degree), so the row
// prefetch can run deeper.
constexpr std::size_t kRegularRowAhead = 32;
// The sharded kernel's pipeline runs the same two stages further ahead.
// Its row stage reads the offsets entry with a demand load, and on a
// 2^22-vertex degree-15 graph the serial distances left that load
// waiting on DRAM: 24 and 8 stepped 18% faster there, and longer
// distances gained under 2% more (BM_WalkStepSharded1, 4-vCPU Xeon VM).
constexpr std::size_t kShardedOffsetsAhead = 24;
constexpr std::size_t kShardedRowAhead = 8;

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
template <bool kLazy>
void step_scalar(const Graph& g, std::span<Vertex> positions, Rng& rng) {
  for (Vertex& p : positions) {
    const Vertex v = p;
    const std::uint32_t deg = g.degree(v);
    std::uint32_t slot;
    if constexpr (kLazy) {
      if (!fused_lazy_slot(rng, deg, slot)) continue;
    } else {
      slot = word_below(rng, deg);
    }
    p = g.neighbor(v, slot);
  }
}

// Batched engine, irregular degrees, non-lazy walks: a draw-ahead
// pipeline. Agent j's slot is drawn kDrawAhead agents before its new
// position is stored, and the drawn entry is prefetched in between. Slots
// are still drawn in ascending agent order, and agent j's draw reads only
// its own (not yet overwritten) position, so every agent reads the same
// xoshiro words as the scalar loop, rejections included. `ring` holds
// the drawn entries of the kDrawAhead agents in flight; agent i's entry
// is read before agent i + kDrawAhead's draw takes its slot.
void step_batched(const CsrView csr, std::span<Vertex> positions, Rng& rng) {
  const std::size_t count = positions.size();
  Vertex* pos = positions.data();
  std::uint32_t ring[kDrawAhead];
  auto draw = [&](std::size_t j) {
    if (j + kOffsetsAhead < count) {
      prefetch(&csr.offsets[pos[j + kOffsetsAhead]]);
    }
    const Vertex v = pos[j];
    const std::uint32_t off = csr.offsets[v];
    const std::uint32_t entry =
        off + word_below(rng, csr.offsets[v + 1] - off);
    prefetch(&csr.neighbors[entry]);
    ring[j % kDrawAhead] = entry;
  };
  const std::size_t head = count < kDrawAhead ? count : kDrawAhead;
  for (std::size_t j = 0; j < head; ++j) draw(j);
  const std::size_t main_end = count - head;
  std::size_t i = 0;
  for (; i < main_end; ++i) {
    pos[i] = csr.neighbors[ring[i % kDrawAhead]];
    draw(i + kDrawAhead);
  }
  for (; i < count; ++i) pos[i] = csr.neighbors[ring[i % kDrawAhead]];
}

// Batched engine, irregular degrees, lazy walks: two-stage prefetch of the
// offsets entry and the row's first line, fused coin-and-slot draw. A
// draw-ahead ring would branch on the unpredictable stay coin twice per
// walker, at the draw and at the store; it read 53-74% slower on the
// double star and the cycle of stars of cliques.
void step_batched_lazy(const CsrView csr, std::span<Vertex> positions,
                       Rng& rng) {
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
    if (!fused_lazy_slot(rng, deg, slot)) continue;
    pos[i] = csr.neighbors[off + slot];
  }
}

// Batched engine, regular graphs: every row starts at v * deg, so the
// offsets array is never touched — one random memory stream instead of
// two, and the row prefetch needs no pipeline stage.
template <bool kLazy>
void step_batched_regular(const CsrView csr, std::uint32_t deg,
                          std::span<Vertex> positions, Rng& rng) {
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
template <bool kLazy>
void step_batched_regular_pow2(const CsrView csr, std::uint32_t deg,
                               std::span<Vertex> positions, Rng& rng) {
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

// Batched engine, implicit backend: degree and neighbor are closed-form
// arithmetic, so there is no memory stream to prefetch — the
// loop is draw-dominated. The draw helpers are shared with every other
// path (and the pow2 shift path is bit-identical to them by construction),
// so the trajectory for a seed is the same one the materialized backend
// would produce.
template <bool kLazy>
void step_implicit(const ImplicitDesc& d, std::span<Vertex> positions,
                   Rng& rng) {
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
    pos[i] = implicit_neighbor(d, v, slot);
  }
}

// Structure-based batched dispatch: the implicit backend takes the
// arithmetic loop, regular power-of-two degrees take the shift path,
// regular degrees skip the offsets stream, everything else runs the
// draw-ahead pipeline (lazy walks: the two-stage prefetch loop).
template <bool kLazy>
void dispatch_batched(const Graph& g, std::span<Vertex> positions, Rng& rng) {
  if (g.is_implicit()) {
    step_implicit<kLazy>(g.implicit_desc(), positions, rng);
  } else if (g.is_regular() && g.degrees_all_pow2()) {
    step_batched_regular_pow2<kLazy>(g.csr(), g.min_degree(), positions,
                                     rng);
  } else if (g.is_regular()) {
    step_batched_regular<kLazy>(g.csr(), g.min_degree(), positions, rng);
  } else if constexpr (kLazy) {
    step_batched_lazy(g.csr(), positions, rng);
  } else {
    step_batched(g.csr(), positions, rng);
  }
}

template <bool kLazy>
void dispatch(const Graph& g, std::span<Vertex> positions, Rng& rng,
              StepEngine engine) {
  if (engine == StepEngine::scalar_checked) {
    step_scalar<kLazy>(g, positions, rng);
  } else {
    dispatch_batched<kLazy>(g, positions, rng);
  }
}

// One shard's range of the sharded step: every walker owns its addressable
// draw chain, so execution order across shards is immaterial. Templated on
// the access policy like the serial kernels (CSR loads vs closed-form
// arithmetic, resolved once per call); the implicit policy's prefetches
// are empty, so its loop keeps no prefetch stage. The prefetches stop at
// the range's end: positions past it belong to a range another thread
// may be stepping.
template <bool kLazy, class Access>
void step_range_sharded(const Access& acc, Vertex* pos, std::size_t begin,
                        std::size_t end, const ShardPlane& plane) {
  for_slot_chains(
      plane, kShardPhaseWalk, begin, end,
      [&](std::size_t i, SlotDraws& draws) {
        if (i + kShardedOffsetsAhead < end) {
          acc.prefetch_degree(pos[i + kShardedOffsetsAhead]);
        }
        if (i + kShardedRowAhead < end) {
          acc.prefetch_row(pos[i + kShardedRowAhead]);
        }
        const GraphRow row = acc.row(pos[i]);
        std::uint32_t slot;
        if constexpr (kLazy) {
          if (!fused_lazy_slot(draws, row.deg, slot)) return;
        } else {
          slot = word_below(draws, row.deg);
        }
        pos[i] = acc.pick(row, slot);
      });
}

}  // namespace

void step_walk_range(const Graph& g, std::span<Vertex> positions,
                     std::size_t begin, std::size_t end,
                     const ShardPlane& plane, Laziness lazy) {
  RUMOR_CHECK(g.min_degree() > 0);
  RUMOR_CHECK(begin <= end && end <= positions.size());
  Vertex* pos = positions.data();
  with_graph_access(g, [&](const auto& acc) {
    if (lazy == Laziness::half) {
      step_range_sharded<true>(acc, pos, begin, end, plane);
    } else {
      step_range_sharded<false>(acc, pos, begin, end, plane);
    }
  });
}

void step_walks_sharded(const Graph& g, std::span<Vertex> positions,
                        std::uint64_t trial_seed, std::uint64_t round,
                        Laziness lazy, std::uint32_t shards) {
  RUMOR_CHECK(g.min_degree() > 0);
  const ShardPlane plane(trial_seed, round);
  shard_pool().parallel_for_ranges(
      positions.size(), shards,
      [&](std::size_t /*shard*/, std::size_t begin, std::size_t end) {
        step_walk_range(g, positions, begin, end, plane, lazy);
      });
}

void step_walks(const Graph& g, std::span<Vertex> positions, Rng& rng,
                Laziness lazy, StepEngine engine) {
  // The single process-boundary validation the unchecked inner loops rely
  // on: a walk step is defined from every vertex, and every position a
  // simulator hands us was produced by placement or a previous step.
  RUMOR_CHECK(g.min_degree() > 0);
  if (lazy == Laziness::half) {
    dispatch<true>(g, positions, rng, engine);
  } else {
    dispatch<false>(g, positions, rng, engine);
  }
}

}  // namespace rumor
