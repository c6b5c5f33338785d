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
      cutoff_(options.max_rounds != 0 ? options.max_rounds
                                      : default_round_cutoff(g.num_vertices())),
      sharded_(sharding_enabled(options.shards, g.num_vertices())),
      shard_width_(sharded_ ? resolve_shard_width(options.shards) : 1),
      seed_(seed),
      owned_arena_(arena != nullptr ? nullptr : std::make_unique<TrialArena>()),
      arena_(arena != nullptr ? arena : owned_arena_.get()),
      agents_(g, resolve_agent_count(g, options), options.placement, rng_,
              resolve_anchor(options, source), arena_,
              sharded_ ? ShardedPlacement{seed, shard_width_}
                       : ShardedPlacement{}),
      calls_(g, model_, *arena_, PushPullRound::LatePulls::draw),
      // Round 0: agents standing on the source are informed.
      agent_side_(*arena_, agents_, source, sharded_, shard_width_) {
  RUMOR_REQUIRE(source < g.num_vertices());
  RUMOR_REQUIRE(!options_.trace.edge_traffic);
  model_.bind(g, options_.transmission, *arena_, seed);
  if (options_.trace.informed_curve) arena_->curve.clear();
  calls_.inform(source, 0);
  if (options_.trace.informed_curve) {
    arena_->curve.push_back(calls_.informed_count());
  }
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
  if (options_.trace.informed_curve) {
    arena_->curve.push_back(calls_.informed_count());
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

// One frontier-sharded round, law-equivalent to step_impl<Mode>: the
// sharded walk kernel, then the agent-inform pass below, then push-pull's
// and visit-exchange's sharded passes. The agent-inform pass stages, by
// agent id (kShardPhaseAgentInform; slot = agent id), the vertex each
// previously informed agent delivers to on the round-start vertex state;
// the serial merge informs them in agent-id order, which orders the
// caller and puller lists and so keys push-pull's slots.
template <class Mode>
void HybridProcess::step_sharded() {
  step_walks_sharded(*graph_, agents_.positions_mut(), seed_, round_,
                     laziness_, shard_width_);
  const ShardPlane plane(seed_, round_);
  const Vertex* pos = agents_.positions().data();
  const auto agent_view = arena_->agent_inform_round.view();
  const auto informed = arena_->vertex_inform_round.view();
  const std::size_t count = agents_.count();
  merge_pass(
      *arena_, count, count, shard_width_,
      [&](std::size_t a) {
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
      },
      [&](Vertex v) {
        if (!informed.touched(v)) calls_.inform(v, round_);
      });
  calls_.sharded(round_, plane, shard_width_);
  if (agent_side_.catch_agents<Mode>(model_, plane, round_, shard_width_) >
      0) {
    last_agent_inform_round_ = round_;
  }
}

bool HybridProcess::halted() const {
  if (done() || round_ >= cutoff_) return true;
  if (model_.trivial()) return false;
  if (calls_.informed_count() >= calls_.target()) return true;  // contained
  return model_.extinct(
      round_, std::max(calls_.last_inform_round(), last_agent_inform_round_));
}

RunResult HybridProcess::run() {
  while (!halted()) step();
  RunResult result;
  result.rounds = round_;
  result.completed = done();
  result.agent_rounds = round_;
  result.informed = calls_.informed_count();
  if (options_.trace.informed_curve) {
    result.informed_curve = arena_->curve;
    result.stifled_curve =
        derive_stifled_curve(result.informed_curve, model_.stifle());
  }
  if (options_.trace.inform_rounds) {
    result.vertex_inform_round = arena_->vertex_inform_round.to_vector();
    result.agent_inform_round = arena_->agent_inform_round.to_vector();
  }
  return result;
}

RunResult run_hybrid(const Graph& g, Vertex source, std::uint64_t seed,
                     WalkOptions options, TrialArena* arena) {
  return HybridProcess(g, source, seed, options, arena).run();
}

// ---- Scenario registry entry ------------------------------------------

namespace {

TrialResult hybrid_entry_run(const Graph& g, const ProtocolOptions& options,
                             Vertex source, std::uint64_t seed,
                             TrialArena* arena) {
  return to_trial_result(
      HybridProcess(g, source, seed, std::get<WalkOptions>(options), arena)
          .run());
}

}  // namespace

void register_hybrid_simulator(SimulatorRegistry& registry) {
  SimulatorEntry entry;
  entry.id = Protocol::hybrid;
  entry.name = "hybrid";
  entry.summary =
      "hybrid: push-pull and visit-exchange on shared informed-vertex state";
  entry.defaults = WalkOptions{};
  entry.run = hybrid_entry_run;
  // Shared sharded-walk hooks: the walk grammar plus the shards= key.
  entry.format_options = sharded_walk_entry_format;
  entry.set_option = sharded_walk_entry_set;
  entry.trace = walk_entry_trace;
  registry.add(std::move(entry));
}

}  // namespace rumor
