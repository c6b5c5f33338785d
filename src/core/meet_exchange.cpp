#include "core/meet_exchange.hpp"

#include "core/registry.hpp"
#include "core/sharding.hpp"
#include "support/philox.hpp"
#include "walk/step_kernel.hpp"

namespace rumor {

MeetExchangeProcess::MeetExchangeProcess(const Graph& g, Vertex source,
                                         std::uint64_t seed,
                                         WalkOptions options,
                                         TrialArena* arena)
    : graph_(&g),
      rng_(seed),
      options_(options),
      laziness_(resolve_laziness(g, options.lazy)),
      trial_(options.max_rounds, g.num_vertices(), options.trace,
             InformRounds::agents),
      sharded_(sharding_enabled(options.shards, g.num_vertices())),
      shard_width_(sharded_ ? resolve_shard_width(options.shards) : 1),
      seed_(seed),
      arena_(arena),
      agents_(g, resolve_agent_count(g, options), options.placement, rng_,
              resolve_anchor(options, source), arena_.get(),
              sharded_ ? ShardedPlacement{seed, shard_width_}
                       : ShardedPlacement{}),
      source_(source) {
  RUMOR_REQUIRE(source < g.num_vertices());
  model_.bind(g, options_.transmission, *arena_, seed);
  const std::size_t count = agents_.count();
  arena_->agent_inform_round.reset(count, kNeverInformed);
  arena_->vertex_marks.reset(g.num_vertices());

  // Round 0: agents standing on s are informed; otherwise s stays "active"
  // until its first visitor.
  if (sharded_) {
    informed_agent_count_ = inform_agents_on_source(
        *arena_, agents_.positions(), source, shard_width_);
  } else {
    order_.reset(*arena_, count);
    for (Agent a = 0; a < count; ++a) {
      if (agents_.position(a) == source) {
        inform_agent_at(order_.index_of(a));
      }
    }
  }
  source_active_ = (informed_agent_count_ == 0);
}

void MeetExchangeProcess::inform_agent_at(std::size_t order_index) {
  RUMOR_CHECK(order_index >= informed_agent_count_);
  const Agent a = order_.at(order_index);
  RUMOR_CHECK(!arena_->agent_inform_round.touched(a));
  arena_->agent_inform_round.set(a, static_cast<std::uint32_t>(round_));
  order_.swap(order_index, informed_agent_count_);
  ++informed_agent_count_;
  last_inform_round_ = round_;
}

void MeetExchangeProcess::step() {
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
void MeetExchangeProcess::step_impl() {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  ++round_;

  step_walks(*graph_, agents_.positions_mut(), rng_, laziness_);

  // Mark the vertices occupied by agents that were informed before this
  // round; exchanges only flow from those agents (paper: "exactly one of
  // them was informed in a previous round"). Stifled agents and agents on
  // quarantined vertices mark nothing — they no longer share.
  const std::size_t count = agents_.count();
  const std::size_t informed_at_start = informed_agent_count_;
  arena_->vertex_marks.advance();
  for (std::size_t idx = 0; idx < informed_at_start; ++idx) {
    const Agent a = order_.at(idx);
    const Vertex v = agents_.position(a);
    if constexpr (kGeneral) {
      if (!model_.can_transmit<Mode>(arena_->agent_inform_round.get(a), v,
                                     round_)) {
        continue;
      }
    }
    arena_->vertex_marks.insert(v);
  }

  // Uninformed agents learn from meetings, or from the still-active source
  // (which transmits like an entity informed at round 0).
  bool source_met = false;
  for (std::size_t idx = informed_at_start; idx < count; ++idx) {
    const Agent a = order_.at(idx);
    const Vertex v = agents_.position(a);
    if (arena_->vertex_marks.contains(v)) {
      if constexpr (kGeneral) {
        if (!model_.attempt<Mode>(v, v)) continue;
      }
      inform_agent_at(idx);
    } else if (source_active_ && v == source_) {
      if constexpr (kGeneral) {
        if (!model_.can_transmit<Mode>(0, source_, round_) ||
            !model_.attempt<Mode>(source_, v)) {
          continue;
        }
      }
      // All simultaneous first visitors are informed (paper §3).
      inform_agent_at(idx);
      source_met = true;
    }
  }
  if (source_met) source_active_ = false;
}

// One frontier-sharded round — law-equivalent to step_impl<Mode>. Two
// parallel passes over agent ids (slot = agent id), both writing in place
// with no merge:
//
//   Walk and marks. Each range is stepped by the sharded walk kernel
//   (per-walker addressable draws), and then the same range's previously
//   informed agents mark the vertex they now stand on. A mark draws
//   nothing — can_transmit is deterministic — and is an idempotent
//   StampSet claim that reads only its agent's pre-round inform round and
//   post-step position, so the mark set is the same for any order, and
//   marking a range before the other ranges have stepped changes no
//   write. It is complete before the meet pass reads it, exactly as in
//   the serial round.
//
//   Meet pass (uninformed agents on a marked vertex, or on the
//   still-active source, become informed) keys every pairing decision by
//   the agent id via the dedicated `meet` draw phase, and each slot writes
//   only its own agent's inform round (through Claims: 64 agents share a
//   bit word). The branch an agent takes (marked vertex beats source)
//   depends only on the fixed mark set and the round-start
//   source_active_; the pass's tallies report whether any agent learned
//   from the source, and source_active_ flips only after the pass, as
//   the serial loop's post-loop flip does.
template <class Mode>
void MeetExchangeProcess::step_sharded() {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  ++round_;

  const std::size_t count = agents_.count();
  const std::span<Vertex> positions = agents_.positions_mut();
  const Vertex* pos = positions.data();
  const ShardPlane plane(seed_, round_);
  auto& agent_round = arena_->agent_inform_round;
  const auto agent_view = agent_round.view();
  auto& marks = arena_->vertex_marks;

  // Walk, then marks: the vertex each previously informed agent occupies
  // (stifled agents and quarantined vertices mark nothing).
  marks.advance();
  auto mark = [&](std::size_t a) {
    if (!agent_view.touched(a)) return;
    const Vertex v = pos[a];
    if constexpr (kGeneral) {
      if (!model_.can_transmit<Mode>(agent_view.get(a), v, round_)) return;
    }
    marks.claim(v);
  };
  tally_ranges(*arena_, count, shard_width_,
               [&](std::size_t begin, std::size_t end,
                   TrialArena::ShardTally&) {
                 step_walk_range(*graph_, positions, begin, end, plane,
                                 laziness_);
                 for_agents(
                     begin, end,
                     [&](std::size_t a) {
                       if (agent_view.touched(a)) marks.prefetch(pos[a]);
                     },
                     mark);
               });

  // Meet pass: uninformed agents on a marked vertex, or at the
  // still-active source (which transmits like an entity informed at round
  // 0), become informed. All simultaneous first visitors of the source
  // are informed (paper §3).
  const auto round = static_cast<std::uint32_t>(round_);
  const auto agents = agent_round.claims();
  auto meet = [&](std::size_t a, TrialArena::ShardTally& tally) {
    if (agents.claimed(a)) return;
    const Vertex v = pos[a];
    if (marks.contains(v)) {
      if constexpr (kGeneral) {
        SlotDraws draws(plane, kShardPhaseMeet, static_cast<std::uint32_t>(a));
        if (!model_.attempt_from<Mode>(v, draws)) return;
      }
    } else if (source_active_ && v == source_) {
      if constexpr (kGeneral) {
        SlotDraws draws(plane, kShardPhaseMeet, static_cast<std::uint32_t>(a));
        if (!model_.can_transmit<Mode>(0, source_, round_) ||
            !model_.attempt_from<Mode>(v, draws)) {
          return;
        }
      }
      tally.source_met = true;
    } else {
      return;
    }
    agents.set(a, round);
    ++tally.informs;
  };
  const TrialArena::ShardTally met = tally_ranges(
      *arena_, count, shard_width_,
      [&](std::size_t begin, std::size_t end, TrialArena::ShardTally& tally) {
        for_agents(
            begin, end,
            [&](std::size_t a) {
              if (!agents.claimed(a)) marks.prefetch(pos[a]);
            },
            [&](std::size_t a) { meet(a, tally); });
      });
  informed_agent_count_ += met.informs;
  if (met.informs > 0) last_inform_round_ = round_;
  if (met.source_met) source_active_ = false;
}

RoundProgress MeetExchangeProcess::progress() const {
  // The still-active source transmits like an entity informed at round 0 —
  // which is exactly what last_inform_round_'s initial value encodes, so
  // the generic extinction rule covers it.
  return {.informed = informed_agent_count_,
          .last_inform = last_inform_round_};
}

RunResult MeetExchangeProcess::run() {
  return trial_.run(*this, model_, *arena_);
}

RunResult run_meet_exchange(const Graph& g, Vertex source, std::uint64_t seed,
                            WalkOptions options) {
  return MeetExchangeProcess(g, source, seed, options).run();
}

// ---- Scenario registry entry ------------------------------------------

void register_meet_exchange_simulator(SimulatorRegistry& registry) {
  add_round_simulator<MeetExchangeProcess, WalkOptions>(
      registry,
      {.id = Protocol::meet_exchange,
       .name = "meet-exchange",
       .summary =
           "MEET-EXCHANGE: only agents carry the rumor; meetings exchange it",
       // The paper's convention: lazy walks exactly on bipartite graphs.
       .defaults = MeetExchangeProcess::default_options(),
       .format_options = sharded_walk_entry_format,
       .set_option = sharded_walk_entry_set});
}

}  // namespace rumor
