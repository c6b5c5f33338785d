#include "core/hybrid.hpp"

#include <algorithm>

#include "core/registry.hpp"
#include "core/sharding.hpp"
#include "support/philox.hpp"
#include "walk/step_kernel.hpp"

namespace rumor {

HybridProcess::HybridProcess(const Graph& g, Vertex source,
                             std::uint64_t seed, WalkOptions options,
                             TrialArena* arena)
    : graph_(&g),
      rng_(seed),
      options_(options),
      laziness_(resolve_laziness(g, options.lazy)),
      trial_(options.max_rounds, g.num_vertices(), options.trace,
             InformRounds::both),
      sharded_(sharding_enabled(options.shards, g.num_vertices())),
      shard_width_(sharded_ ? resolve_shard_width(options.shards) : 1),
      seed_(seed),
      arena_(arena),
      agents_(g, resolve_agent_count(g, options), options.placement, rng_,
              resolve_anchor(options, source), arena_.get(),
              sharded_ ? ShardedPlacement{seed, shard_width_}
                       : ShardedPlacement{}),
      calls_(g, model_, *arena_, PushPullRound::LatePulls::draw),
      // Round 0: agents standing on the source are informed.
      agent_side_(*arena_, agents_, source, sharded_, shard_width_) {
  RUMOR_REQUIRE(source < g.num_vertices());
  model_.bind(g, options_.transmission, *arena_, seed);
  calls_.inform(source, 0);
}

void HybridProcess::step() {
  ++round_;
  if (model_.blocking() && round_ == model_.block_round()) {
    calls_.activate_blocking();
  }
  if (sharded_) {
    if (model_.trivial()) {
      step_sharded<transmission::Uniform>();
    } else {
      step_sharded<transmission::General>();
    }
  } else if (model_.trivial()) {
    step_impl<transmission::Uniform>();
  } else {
    step_impl<transmission::General>();
  }
}

template <class Mode>
void HybridProcess::step_impl() {
  step_walks(*graph_, agents_.positions_mut(), rng_, laziness_);
  agent_side_.inform_vertices<Mode>(
      model_, round_, [&](Vertex v) { calls_.inform(v, round_); });
  calls_.serial(round_, rng_);
  if (agent_side_.catch_agents<Mode>(model_, round_) > 0) {
    last_agent_inform_round_ = round_;
  }
}

// One frontier-sharded round, law-equivalent to step_impl<Mode>: the walk
// and agent-inform pass below, then push-pull's and visit-exchange's
// sharded passes. Each range of the walk pass is stepped by the sharded
// walk kernel, and then the same range stages, by agent id
// (kShardPhaseAgentInform; slot = agent id), the vertex each previously
// informed agent delivers to. Staging reads its agent's pre-round inform
// round, its post-step position and the round-start vertex state, which
// nothing writes until every range has finished; the serial merge then
// informs the staged vertices in agent-id order, which orders the caller
// and puller lists and so keys push-pull's slots. The merge prefetches
// each staged vertex's state sixteen entries ahead: on a star's first
// round it informs millions of leaves, one DRAM access each.
template <class Mode>
void HybridProcess::step_sharded() {
  const ShardPlane plane(seed_, round_);
  const std::span<Vertex> positions = agents_.positions_mut();
  const Vertex* pos = positions.data();
  const auto agent_view = arena_->agent_inform_round.view();
  const auto informed = arena_->vertex_inform_round.view();
  const std::size_t count = agents_.count();
  auto stage = [&](std::size_t a) {
    if (!agent_view.touched(a)) return kNoVertex;
    const Vertex v = pos[a];
    if (informed.touched(v)) return kNoVertex;
    if constexpr (std::is_same_v<Mode, transmission::General>) {
      SlotDraws draws(plane, kShardPhaseAgentInform,
                      static_cast<std::uint32_t>(a));
      if (!model_.can_transmit<Mode>(agent_view.get(a), v, round_) ||
          !model_.attempt_from<Mode>(v, draws)) {
        return kNoVertex;
      }
    }
    return v;
  };
  merge_ranges(
      *arena_, count, count, shard_width_,
      [&](std::size_t begin, std::size_t end, std::vector<Vertex>& out) {
        step_walk_range(*graph_, positions, begin, end, plane, laziness_);
        for_agents(
            begin, end,
            [&](std::size_t a) {
              if (agent_view.touched(a)) informed.prefetch_stamp(pos[a]);
            },
            [&](std::size_t a) {
              const Vertex v = stage(a);
              if (v != kNoVertex) out.push_back(v);
            });
      },
      [&](Vertex v) {
        if (!informed.touched(v)) calls_.inform(v, round_);
      },
      // inform writes both the stamp and the value.
      [&](Vertex v) { informed.prefetch(v); });
  calls_.sharded(round_, plane, shard_width_);
  if (agent_side_.catch_agents<Mode>(model_, plane, round_, shard_width_) >
      0) {
    last_agent_inform_round_ = round_;
  }
}

RoundProgress HybridProcess::progress() const {
  return {.informed = calls_.informed_count(),
          .target = calls_.target(),
          .last_inform = std::max(calls_.last_inform_round(),
                                  last_agent_inform_round_)};
}

RunResult HybridProcess::run() { return trial_.run(*this, model_, *arena_); }

RunResult run_hybrid(const Graph& g, Vertex source, std::uint64_t seed,
                     WalkOptions options, TrialArena* arena) {
  return HybridProcess(g, source, seed, options, arena).run();
}

// ---- Scenario registry entry ------------------------------------------

void register_hybrid_simulator(SimulatorRegistry& registry) {
  // Shared sharded-walk hooks: the walk grammar plus the shards= key.
  add_round_simulator<HybridProcess, WalkOptions>(
      registry,
      {.id = Protocol::hybrid,
       .name = "hybrid",
       .summary = "hybrid: push-pull and visit-exchange on shared "
                  "informed-vertex state",
       .defaults = WalkOptions{},
       .format_options = sharded_walk_entry_format,
       .set_option = sharded_walk_entry_set});
}

}  // namespace rumor
