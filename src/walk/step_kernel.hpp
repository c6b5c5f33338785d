// Batched random-walk stepping kernel.
//
// All agent-based protocols advance Θ(|A|) walkers per round; this kernel
// is that inner loop. It replaces per-agent calls through the checked Graph
// API with a single pass over a position array (SoA) that:
//
//  * uses the unchecked CSR accessors — argument validity is the caller's
//    invariant, established once at the process boundary;
//  * software-prefetches the CSR offsets of upcoming agents and the
//    neighbor entries they draw (draws run a few agents ahead of the
//    position stores, in the same order), hiding the random-access
//    latency that dominates at large n and on wide rows;
//  * fuses the laziness coin and the neighbor slot into one RNG draw (bit
//    63 is the coin; the low 63 bits drive an unbiased Lemire rejection
//    sampler for the slot);
//  * when every degree is a power of two (the regular-graph bench
//    families), replaces the 128-bit Lemire multiply with a plain shift —
//    bit-for-bit the same slot Rng::below would produce, so the fast path
//    cannot change a seeded trajectory.
//
// The batched loop and the checked scalar reference consume the RNG
// identically, so they produce the same trajectory for a given seed. The
// scalar loop is retained as the differential baseline for the
// equivalence tests and benchmarks.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>

#include "graph/graph.hpp"
#include "support/philox.hpp"
#include "support/rng.hpp"
#include "walk/agents.hpp"

namespace rumor {

// Which implementation of the serial stepping loop to run. Every simulator
// runs batched; scalar_checked produces the identical trajectory by
// construction and exists only as the kernel-level reference for the
// differential tests and the microbenchmark baseline.
enum class StepEngine : std::uint8_t { batched, scalar_checked };

// Lazy-step draw shared by every stepping path: one 64-bit draw yields the
// stay/move coin (bit 63, matching Rng::coin) and the neighbor slot
// (low 63 bits, unbiased via Lemire rejection). Returns false to stay put.
// Templated on the word source so the serial xoshiro loops and the sharded
// per-slot Philox chains (SlotDraws) consume bit-identical draw *semantics*
// from their respective streams.
template <class WordSource>
[[nodiscard]] inline bool fused_lazy_slot(WordSource& rng, std::uint32_t deg,
                                          std::uint32_t& slot) {
  constexpr std::uint64_t kMask63 = (std::uint64_t{1} << 63) - 1;
  std::uint64_t x = rng();
  if ((x >> 63) != 0) return false;  // stay
  std::uint64_t x63 = x & kMask63;
  __extension__ using u128 = unsigned __int128;
  u128 m = static_cast<u128>(x63) * deg;
  auto low = static_cast<std::uint64_t>(m) & kMask63;
  if (low < deg) {
    const std::uint64_t threshold = ((kMask63 - deg) + 1) % deg;  // 2^63 mod deg
    while (low < threshold) {
      x63 = rng() & kMask63;
      m = static_cast<u128>(x63) * deg;
      low = static_cast<std::uint64_t>(m) & kMask63;
    }
  }
  slot = static_cast<std::uint32_t>(m >> 63);
  return true;
}

// Non-lazy slot draw for generic word sources: the full-width Lemire
// rejection sampler, bit-identical to Rng::below on the same word stream.
// Exact for any bound up to 2^64 - 1 (sharded stationary placement draws
// one of 2m edge slots); the result has the bound's type.
template <class WordSource, std::unsigned_integral Bound>
[[nodiscard]] inline Bound word_below(WordSource& rng, Bound bound) {
  __extension__ using u128 = unsigned __int128;
  std::uint64_t x = rng();
  u128 m = static_cast<u128>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - std::uint64_t{bound}) % bound;
    while (low < threshold) {
      x = rng();
      m = static_cast<u128>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<Bound>(m >> 64);
}

// Advances every position one walk step in place (ascending index — the
// paper's canonical agent order). Requires g.min_degree() > 0 and every
// position < g.num_vertices(). A walker's edge crossings show in its
// positions: a move from u to v crosses {u, v}, a lazy stay crosses none.
void step_walks(const Graph& g, std::span<Vertex> positions, Rng& rng,
                Laziness lazy, StepEngine engine = StepEngine::batched);

// Frontier-sharded stepping: the walker span is split into balanced
// contiguous ranges executed on the ambient shard_pool(). Walker i draws
// from its OWN addressable chain — SlotDraws(plane(trial_seed, round),
// kShardPhaseWalk, i) — so the trajectory is a pure function of
// (trial_seed, round, positions): bit-identical for every shard count and
// worker count, by construction. Trajectories differ from the serial
// stepper above (a different draw plane), which is why sharding is an
// explicit engine choice, not a transparent fast path. Position writes are
// range-disjoint, so the parallel pass is race-free.
void step_walks_sharded(const Graph& g, std::span<Vertex> positions,
                        std::uint64_t trial_seed, std::uint64_t round,
                        Laziness lazy, std::uint32_t shards);

// One range [begin, end) of step_walks_sharded's pass under `plane` =
// ShardPlane(trial_seed, round), run on the calling thread. For simulators
// that fan out their own range pass and act on a range's new positions
// right after stepping it, while they are still in cache; walker i's step
// is the same whichever pass or range runs it. The first words of the
// walkers' chains are computed eight at a time (shard_first_words), and
// on a CSR graph the offsets and rows of upcoming walkers are prefetched
// as in the serial kernels. Requires g.min_degree() > 0.
void step_walk_range(const Graph& g, std::span<Vertex> positions,
                     std::size_t begin, std::size_t end,
                     const ShardPlane& plane, Laziness lazy);

}  // namespace rumor
