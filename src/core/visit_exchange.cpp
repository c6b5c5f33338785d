#include "core/visit_exchange.hpp"

#include "core/registry.hpp"
#include "core/sharding.hpp"
#include "support/philox.hpp"
#include "support/thread_pool.hpp"
#include "walk/step_kernel.hpp"

namespace rumor {

VisitExchangeAgents::VisitExchangeAgents(TrialArena& arena,
                                         const AgentSystem& agents,
                                         Vertex source, bool sharded,
                                         std::uint32_t width)
    : arena_(&arena), agents_(&agents) {
  const std::size_t count = agents.count();
  arena.agent_inform_round.reset(count, kNeverInformed);
  if (sharded) {
    informed_ = inform_agents_on_source(arena, agents.positions(), source,
                                        width);
    return;
  }
  order_.reset(arena, count);
  for (Agent a = 0; a < count; ++a) {
    if (agents.position(a) == source) inform_agent_at(order_.index_of(a), 0);
  }
}

void VisitExchangeAgents::inform_agent_at(std::size_t order_index,
                                          Round round) {
  RUMOR_CHECK(order_index >= informed_);
  const Agent a = order_.at(order_index);
  RUMOR_CHECK(!arena_->agent_inform_round.touched(a));
  arena_->agent_inform_round.set(a, static_cast<std::uint32_t>(round));
  order_.swap(order_index, informed_);
  ++informed_;
}

VisitExchangeProcess::VisitExchangeProcess(const Graph& g, Vertex source,
                                           std::uint64_t seed,
                                           WalkOptions options,
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
      // Round 0: agents standing on the source are informed.
      agent_side_(*arena_, agents_, source, sharded_, shard_width_) {
  RUMOR_REQUIRE(source < g.num_vertices());
  model_.bind(g, options_.transmission, *arena_, seed);
  // Sharded mode steps walkers from per-walker addressable draws, which
  // cannot express the per-edge traced stream.
  if (sharded_) RUMOR_REQUIRE(!options_.trace.edge_traffic);
  target_ = g.num_vertices();
  arena_->vertex_inform_round.reset(g.num_vertices(), kNeverInformed);
  if (options_.trace.informed_curve) arena_->curve.clear();
  if (options_.trace.edge_traffic) {
    arena_->edge_traffic.assign(g.num_edges(), 0);
  }

  inform_vertex(source);  // round 0: the source is informed
  if (all_agents_informed()) agent_complete_round_ = 0;
  if (options_.trace.informed_curve) {
    arena_->curve.push_back(informed_vertex_count_);
  }
}

void VisitExchangeProcess::inform_vertex(Vertex v) {
  RUMOR_CHECK(!arena_->vertex_inform_round.touched(v));
  arena_->vertex_inform_round.set(v, static_cast<std::uint32_t>(round_));
  ++informed_vertex_count_;
  last_inform_round_ = round_;
}

void VisitExchangeProcess::activate_blocking() {
  const Vertex n = graph_->num_vertices();
  target_ =
      n - model_.count_blocked_uninformed(arena_->vertex_inform_round, n);
}

void VisitExchangeProcess::step() {
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
void VisitExchangeProcess::step_impl() {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  ++round_;
  if constexpr (kGeneral) {
    if (model_.blocking() && round_ == model_.block_round()) {
      activate_blocking();
    }
  }

  // All agents take one walk step (ascending id = the paper's canonical
  // agent order). Traced and untraced paths run the same kernel and consume
  // the RNG identically, so tracing never changes the trajectory.
  std::uint64_t* traffic =
      options_.trace.edge_traffic ? arena_->edge_traffic.data() : nullptr;
  step_walks(*graph_, agents_.positions_mut(), rng_, laziness_, traffic);

  // Phase A, then phase B on the post-phase-A vertex state.
  agent_side_.inform_vertices<Mode>(model_, round_,
                                    [&](Vertex v) { inform_vertex(v); });
  if (agent_side_.catch_agents<Mode>(model_, round_) > 0) {
    last_inform_round_ = round_;
  }

  if (all_agents_informed() && agent_complete_round_ == kNoRoundYet) {
    agent_complete_round_ = round_;
  }
  if (options_.trace.informed_curve) {
    arena_->curve.push_back(informed_vertex_count_);
  }
}

// One frontier-sharded round — law-equivalent to step_impl<Mode>. The
// sharded walk kernel steps every agent (per-walker addressable draws);
// phases A and B then each run as one parallel pass over agent ids
// (slot = agent id), writing in place with no merge:
//
//   Phase A (agents informed before this round inform their vertex)
//   claims the vertex. The claim is idempotent, and whether a vertex ends
//   the phase informed is the OR over the agents standing on it of their
//   own slot-keyed draws — the same for any order. An agent that finds
//   its vertex already claimed skips its draw, which changes nothing
//   observable: no other slot reads its words.
//
//   Phase B (agents standing on an informed vertex become informed) reads
//   the POST-phase-A vertex state, as the serial loop does, and each slot
//   writes only its own agent's inform round.
template <class Mode>
void VisitExchangeProcess::step_sharded() {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  ++round_;
  if constexpr (kGeneral) {
    if (model_.blocking() && round_ == model_.block_round()) {
      activate_blocking();
    }
  }

  step_walks_sharded(*graph_, agents_.positions_mut(), seed_, round_,
                     laziness_, shard_width_);

  const Vertex* pos = agents_.positions().data();
  const ShardPlane plane(seed_, round_);
  const auto round = static_cast<std::uint32_t>(round_);
  const auto agent_view = arena_->agent_inform_round.view();

  // Phase A: every previously informed agent claims the vertex it stands
  // on (stifled agents and quarantined vertices excepted).
  const auto claims = arena_->vertex_inform_round.claims();
  const std::size_t vertex_informs =
      tally_pass(*arena_, agents_.count(), shard_width_,
                 [&](std::size_t a, TrialArena::ShardTally& tally) {
                   if (!agent_view.touched(a)) return;
                   const Vertex v = pos[a];
                   if (claims.claimed(v)) return;
                   if constexpr (kGeneral) {
                     SlotDraws draws(plane, kShardPhaseAgentInform,
                                     static_cast<std::uint32_t>(a));
                     if (!model_.can_transmit<Mode>(agent_view.get(a), v,
                                                    round_) ||
                         !model_.attempt_from<Mode>(v, draws)) {
                       return;
                     }
                   }
                   if (claims.claim(v, round)) ++tally.informs;
                 })
          .informs;

  // Phase B: uninformed agents standing on an informed vertex (informed in
  // this round or earlier) become informed, unless the vertex has stifled
  // or is quarantined.
  const std::size_t agent_informs =
      agent_side_.catch_agents<Mode>(model_, plane, round_, shard_width_);

  informed_vertex_count_ += static_cast<std::uint32_t>(vertex_informs);
  if (vertex_informs + agent_informs > 0) last_inform_round_ = round_;
  if (all_agents_informed() && agent_complete_round_ == kNoRoundYet) {
    agent_complete_round_ = round_;
  }
  if (options_.trace.informed_curve) {
    arena_->curve.push_back(informed_vertex_count_);
  }
}

bool VisitExchangeProcess::halted() const {
  if (done() || round_ >= cutoff_) return true;
  if (model_.trivial()) return false;
  if (informed_vertex_count_ >= target_) return true;  // containment
  return model_.extinct(round_, last_inform_round_);
}

RunResult VisitExchangeProcess::run() {
  while (!halted()) step();
  RunResult result;
  result.rounds = round_;
  result.completed = done();
  result.agent_rounds =
      agent_complete_round_ != kNoRoundYet ? agent_complete_round_ : round_;
  result.informed = informed_vertex_count_;
  if (options_.trace.informed_curve) {
    result.informed_curve = arena_->curve;
    result.stifled_curve =
        derive_stifled_curve(result.informed_curve, model_.stifle());
  }
  if (options_.trace.inform_rounds) {
    result.vertex_inform_round = arena_->vertex_inform_round.to_vector();
    result.agent_inform_round = arena_->agent_inform_round.to_vector();
  }
  if (options_.trace.edge_traffic) result.edge_traffic = arena_->edge_traffic;
  return result;
}

RunResult run_visit_exchange(const Graph& g, Vertex source,
                             std::uint64_t seed, WalkOptions options) {
  return VisitExchangeProcess(g, source, seed, options).run();
}

// ---- Scenario registry entry ------------------------------------------

namespace {

TrialResult visit_exchange_entry_run(const Graph& g,
                                     const ProtocolOptions& options,
                                     Vertex source, std::uint64_t seed,
                                     TrialArena* arena) {
  return to_trial_result(
      VisitExchangeProcess(g, source, seed, std::get<WalkOptions>(options),
                           arena)
          .run());
}

}  // namespace

void register_visit_exchange_simulator(SimulatorRegistry& registry) {
  SimulatorEntry entry;
  entry.id = Protocol::visit_exchange;
  entry.name = "visit-exchange";
  entry.summary =
      "VISIT-EXCHANGE: stationary random walkers relay via visited vertices";
  entry.defaults = WalkOptions{};
  entry.run = visit_exchange_entry_run;
  // Shared sharded-walk hooks: `shards=` parses and round-trips for every
  // walk simulator with a frontier-sharded round (visit-exchange,
  // meet-exchange, hybrid).
  entry.format_options = sharded_walk_entry_format;
  entry.set_option = sharded_walk_entry_set;
  entry.trace = walk_entry_trace;
  registry.add(std::move(entry));
}

}  // namespace rumor
