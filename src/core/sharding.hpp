// Shared grammar + policy for the frontier-sharded round kernels.
//
// `shards=` is the one knob: absent (0) keeps the serial legacy engine and
// its byte-pinned golden trajectories; `shards=auto` turns the sharded
// engine on for graphs at or above kShardAutoThreshold vertices;
// `shards=N` (N >= 1) turns it on unconditionally. The sharded engine is a
// DIFFERENT engine — its draws come from the addressable ShardPlane, so
// its trajectories differ from legacy — but within the engine the
// trajectory depends only on whether sharding is ON, never on the
// partition count: every random decision is keyed by its logical slot, and
// every write is either merged shard-major (global slot order), an
// idempotent claim, or owned by its slot's agent — none of which an
// execution order can change. shards=1 therefore IS the serial
// reference the determinism tests compare 2/4/7-way runs against, and
// `auto` can pick its width from the machine without breaking
// reproducibility.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/transmission.hpp"
#include "support/philox.hpp"
#include "support/thread_pool.hpp"
#include "support/trial_arena.hpp"

namespace rumor {

namespace spec_text {
class KeyValWriter;
}

// Sentinel stored in an options struct's `shards` field for `shards=auto`.
inline constexpr std::uint32_t kShardsAuto = 0xFFFFFFFFu;

// `shards=auto` enables the sharded engine iff the graph has at least this
// many vertices (below it, per-round fan-out overhead beats the win).
inline constexpr std::uint64_t kShardAutoThreshold = std::uint64_t{1} << 22;

// Whether the sharded engine is on for this (option, graph size) pair.
// Pure in its inputs — never consults worker count or machine state, so
// the engine choice (and with it the trajectory) is machine-independent.
[[nodiscard]] constexpr bool sharding_enabled(std::uint32_t shards_option,
                                              std::uint64_t n) {
  if (shards_option == 0) return false;
  if (shards_option == kShardsAuto) return n >= kShardAutoThreshold;
  return true;
}

// Partitions per worker that `shards=auto` cuts each sharded pass into.
// Workers claim the partitions one at a time, so a pass ends when the
// pool's combined work is done, not when its slowest worker is: a worker
// that is descheduled or slowed (a shared host, a busy sibling core) holds
// up one small partition while the others take the rest. With one
// partition per worker every pass would wait for the slowest core.
inline constexpr std::uint32_t kShardPartitionsPerWorker = 16;

// Execution width (partition count) for an enabled sharded run: explicit
// N uses N partitions, auto kShardPartitionsPerWorker per worker of the
// ambient shard pool (1 on a one-worker pool, which runs inline anyway).
// Width is pure execution policy — any width produces the identical
// trajectory.
[[nodiscard]] std::uint32_t resolve_shard_width(std::uint32_t shards_option);

// Parses `shards=auto|N` (N >= 1; 0 is rejected — "absent" is the only
// spelling of the legacy engine, keeping the text round-trip unique).
[[nodiscard]] bool set_shards_option(std::uint32_t& field,
                                     std::string_view value);

// Round-trip formatting: emits nothing at the default (0), `auto` for the
// sentinel, the number otherwise.
void format_shards_option(std::uint32_t shards, std::uint32_t defaults,
                          spec_text::KeyValWriter& out);

// One in-place pass over the slots [0, count), range by range:
// body(begin, end, tally) runs once for each of `width` balanced ranges of
// shard_pool(), counting into its own ShardScratch tally, and the sum
// comes back. For passes that need no merge because their writes are
// idempotent claims or belong to the slot's own agent. A range body may
// make several sweeps over its range — the sharded walk simulators step
// a range and then claim or mark from it while its positions are still
// in cache. The tallies are zeroed serially first: parallel_for_ranges
// runs no callback for the empty ranges it clamps away when count <
// width.
template <class RangeBody>
TrialArena::ShardTally tally_ranges(TrialArena& arena, std::size_t count,
                                    std::uint32_t width, RangeBody&& body) {
  auto& scratch = arena.shard_scratch;
  if (scratch.size() < width) scratch.resize(width);
  for (std::uint32_t s = 0; s < width; ++s) scratch[s].tally = {};
  shard_pool().parallel_for_ranges(
      count, width, [&](std::size_t s, std::size_t begin, std::size_t end) {
        TrialArena::ShardTally local;
        body(begin, end, local);
        scratch[s].tally = local;
      });
  TrialArena::ShardTally total;
  for (std::uint32_t s = 0; s < width; ++s) {
    total.informs += scratch[s].tally.informs;
    total.source_met = total.source_met || scratch[s].tally.source_met;
  }
  return total;
}

// tally_ranges with one body(slot, tally) call per slot.
template <class Body>
TrialArena::ShardTally tally_pass(TrialArena& arena, std::size_t count,
                                  std::uint32_t width, Body&& body) {
  return tally_ranges(arena, count, width,
                      [&](std::size_t begin, std::size_t end,
                          TrialArena::ShardTally& tally) {
                        for (std::size_t i = begin; i < end; ++i) {
                          body(i, tally);
                        }
                      });
}

// How many agents ahead an agent pass prefetches vertex state.
inline constexpr std::size_t kAgentPrefetchAhead = 16;

// Runs visit(a) for every agent a in [begin, end) in ascending order, each
// after prefetch(a + kAgentPrefetchAhead) while that agent is still in the
// range. An agent pass reads vertex state at its agent's position, one
// random access per agent; `prefetch` hints the state the later agent
// will read (if it reads any), so the line has sixteen agents' time to
// arrive. It stops at the range's end because the positions past it may
// belong to a range another thread is stepping.
template <class Prefetch, class Visit>
void for_agents(std::size_t begin, std::size_t end, Prefetch&& prefetch,
                Visit&& visit) {
  std::size_t a = begin;
  for (; a + kAgentPrefetchAhead < end; ++a) {
    prefetch(a + kAgentPrefetchAhead);
    visit(a);
  }
  for (; a < end; ++a) visit(a);
}

// One segment per shard (`segment` names survivors or candidates) for a
// pass over at most `bound` items on `width` ranges. Every segment is
// cleared here, serially, not in the fan-out callback: parallel_for_ranges
// clamps the range count to the item count, so a callback clear would
// skip the tail segments whenever there are fewer items than ranges and
// leave stale entries from an earlier pass for the concat or merge. Each
// segment is reserved to the analytic per-range bound
// ceil(bound/width) <= bound/width + 1 (a no-op once grown), so
// steady-state trials stay allocation-free instead of reallocating at
// each trial's random high-water mark.
inline std::vector<TrialArena::ShardScratch>& pass_segments(
    TrialArena& arena, std::size_t bound, std::uint32_t width,
    std::vector<std::uint32_t> TrialArena::ShardScratch::*segment) {
  auto& scratch = arena.shard_scratch;
  if (scratch.size() < width) scratch.resize(width);
  for (std::uint32_t s = 0; s < width; ++s) {
    (scratch[s].*segment).clear();
    (scratch[s].*segment).reserve(bound / width + 1);
  }
  return scratch;
}

// Order-preserving parallel filter of `list` (at most `bound` entries over
// the trial): keeps each entry v with keep(v) true, each of `width` ranges
// into its own segment, then concatenates the segments in shard order —
// exactly what the serial in-place compaction leaves.
template <class Keep>
void filter_pass(TrialArena& arena, std::vector<std::uint32_t>& list,
                 std::size_t bound, std::uint32_t width, Keep&& keep) {
  auto& scratch = pass_segments(arena, bound, width,
                                &TrialArena::ShardScratch::survivors);
  shard_pool().parallel_for_ranges(
      list.size(), width,
      [&](std::size_t s, std::size_t begin, std::size_t end) {
        auto& out = scratch[s].survivors;
        for (std::size_t i = begin; i < end; ++i) {
          if (keep(list[i])) out.push_back(list[i]);
        }
      });
  list.clear();
  for (std::uint32_t s = 0; s < width; ++s) {
    list.insert(list.end(), scratch[s].survivors.begin(),
                scratch[s].survivors.end());
  }
}

// The default prefetch hook of merge_ranges and merge_pass: none.
struct NoPrefetch {
  void operator()(Vertex /*v*/) const {}
};

// One staged pass over the slots [0, count) (count <= bound), range by
// range: stage(begin, end, out) runs once for each of `width` ranges and
// appends to `out`, in ascending slot order, the vertices its slots would
// inform; then merge(v) runs serially for every staged vertex in
// shard-major = ascending slot order. Every stage runs before the first
// merge, so all of them read the pass's start state, and the result is a
// pure function of that state and the slots' keyed draws. The serial
// merge makes one random access per staged vertex; prefetch(v) hints the
// state merge(v) will touch, kAgentPrefetchAhead entries ahead within a
// segment, as for_agents does for an agent pass.
template <class StageRange, class Merge, class Prefetch = NoPrefetch>
void merge_ranges(TrialArena& arena, std::size_t count, std::size_t bound,
                  std::uint32_t width, StageRange&& stage, Merge&& merge,
                  Prefetch&& prefetch = {}) {
  auto& scratch = pass_segments(arena, bound, width,
                                &TrialArena::ShardScratch::candidates);
  shard_pool().parallel_for_ranges(
      count, width, [&](std::size_t s, std::size_t begin, std::size_t end) {
        stage(begin, end, scratch[s].candidates);
      });
  for (std::uint32_t s = 0; s < width; ++s) {
    const std::vector<Vertex>& staged = scratch[s].candidates;
    for_agents(
        0, staged.size(), [&](std::size_t i) { prefetch(staged[i]); },
        [&](std::size_t i) { merge(staged[i]); });
  }
}

// merge_ranges with one stage(slot) call per slot, returning the vertex
// the slot would inform or kNoVertex.
template <class Stage, class Merge, class Prefetch = NoPrefetch>
void merge_pass(TrialArena& arena, std::size_t count, std::size_t bound,
                std::uint32_t width, Stage&& stage, Merge&& merge,
                Prefetch&& prefetch = {}) {
  merge_ranges(
      arena, count, bound, width,
      [&](std::size_t begin, std::size_t end, std::vector<Vertex>& out) {
        for (std::size_t i = begin; i < end; ++i) {
          const Vertex v = stage(i);
          if (v != kNoVertex) out.push_back(v);
        }
      },
      std::forward<Merge>(merge), std::forward<Prefetch>(prefetch));
}

// The agent-catch pass of sharded visit-exchange and hybrid, keyed by
// agent id: every uninformed agent standing on an informed vertex is
// informed at `round` — in General mode only while the vertex may still
// transmit and if the agent's (AgentCatch, agent id) draw succeeds. It
// reads vertex state only and each slot writes only its own agent (through
// Claims, since neighbouring agents share bit words), so it needs no
// merge; returns how many agents were informed.
template <class Mode>
std::size_t catch_agents_sharded(TrialArena& arena,
                                 const TransmissionModel& model,
                                 std::span<const Vertex> positions,
                                 const ShardPlane& plane, Round round,
                                 std::uint32_t width) {
  const auto agents = arena.agent_inform_round.claims();
  const auto vertices = arena.vertex_inform_round.view();
  const auto stamp = static_cast<std::uint32_t>(round);
  auto catch_agent = [&](std::size_t a, TrialArena::ShardTally& tally) {
    if (agents.claimed(a)) return;
    const Vertex v = positions[a];
    if (!vertices.touched(v)) return;
    if constexpr (std::is_same_v<Mode, transmission::General>) {
      SlotDraws draws(plane, kShardPhaseAgentCatch,
                      static_cast<std::uint32_t>(a));
      if (!model.can_transmit<Mode>(vertices.get(v), v, round) ||
          !model.attempt_from<Mode>(v, draws)) {
        return;
      }
    }
    agents.set(a, stamp);
    ++tally.informs;
  };
  return tally_ranges(arena, positions.size(), width,
                      [&](std::size_t begin, std::size_t end,
                          TrialArena::ShardTally& tally) {
                        for_agents(
                            begin, end,
                            [&](std::size_t a) {
                              if (!agents.claimed(a)) {
                                vertices.prefetch_stamp(positions[a]);
                              }
                            },
                            [&](std::size_t a) { catch_agent(a, tally); });
                      })
      .informs;
}

// Round 0 of the sharded agent protocols: every agent standing on
// `source` is informed at round 0, in one tally_pass keyed by agent id.
// Requires arena.agent_inform_round reset to positions.size() agents;
// returns how many agents were informed.
[[nodiscard]] std::size_t inform_agents_on_source(
    TrialArena& arena, std::span<const Vertex> positions, Vertex source,
    std::uint32_t width);

}  // namespace rumor
