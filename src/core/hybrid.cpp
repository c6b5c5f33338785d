#include "core/hybrid.hpp"

#include "core/registry.hpp"
#include "core/sharding.hpp"
#include "graph/access.hpp"
#include "support/philox.hpp"
#include "support/thread_pool.hpp"
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
                       : ShardedPlacement{}) {
  RUMOR_REQUIRE(source < g.num_vertices());
  model_.bind(g, options_.transmission, *arena_, seed);
  // Sharded mode steps walkers from per-walker addressable draws, which
  // cannot express the per-edge traced stream; the CLI rejects the
  // combination with a message, this REQUIRE is the API-user backstop.
  if (sharded_) RUMOR_REQUIRE(!options_.trace.edge_traffic);
  target_ = g.num_vertices();
  const std::size_t count = agents_.count();
  arena_->vertex_inform_round.reset(g.num_vertices(), kNeverInformed);
  arena_->agent_inform_round.reset(count, kNeverInformed);
  arena_->informed_nbr_count.reset(g.num_vertices(), 0);
  arena_->vertex_marks.reset(g.num_vertices());  // ever-in-frontier marks
  arena_->active.clear();
  arena_->active.reserve(g.num_vertices());  // high-water once, then free
  arena_->frontier.clear();
  arena_->frontier.reserve(g.num_vertices());
  if (options_.trace.informed_curve) arena_->curve.clear();

  inform_vertex(source);
  if (sharded_) {
    informed_agent_count_ = inform_agents_on_source(
        *arena_, agents_.positions(), source, shard_width_);
  } else {
    order_.reset(*arena_, count);
    for (Agent a = 0; a < count; ++a) {
      if (agents_.position(a) == source) inform_agent_at(order_.index_of(a));
    }
  }
  if (options_.trace.informed_curve) {
    arena_->curve.push_back(informed_vertex_count_);
  }
}

void HybridProcess::inform_vertex(Vertex v) {
  RUMOR_CHECK(!arena_->vertex_inform_round.touched(v));
  arena_->vertex_inform_round.set(v, static_cast<std::uint32_t>(round_));
  ++informed_vertex_count_;
  last_inform_round_ = round_;
  arena_->active.push_back(v);
  const std::uint32_t deg = graph_->degree_unchecked(v);
  for (std::uint32_t i = 0; i < deg; ++i) {
    const Vertex w = graph_->neighbor_unchecked(v, i);
    arena_->informed_nbr_count.add(w, 1);
    if (!arena_->vertex_inform_round.touched(w) &&
        !arena_->vertex_marks.contains(w)) {
      arena_->vertex_marks.insert(w);
      arena_->frontier.push_back(w);
    }
  }
}

void HybridProcess::inform_agent_at(std::size_t order_index) {
  RUMOR_CHECK(order_index >= informed_agent_count_);
  const Agent a = order_.at(order_index);
  RUMOR_CHECK(!arena_->agent_inform_round.touched(a));
  arena_->agent_inform_round.set(a, static_cast<std::uint32_t>(round_));
  order_.swap(order_index, informed_agent_count_);
  ++informed_agent_count_;
  last_inform_round_ = round_;
}

void HybridProcess::activate_blocking() {
  // Also feed the neighbor counters so the push-pull half's saturation
  // retirement treats quarantined-uninformed vertices as unreachable.
  const std::uint8_t* blocked = model_.blocked_flags();
  const Vertex n = graph_->num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    if (blocked[v] != 0 && !arena_->vertex_inform_round.touched(v)) {
      const std::uint32_t deg = graph_->degree_unchecked(v);
      for (std::uint32_t i = 0; i < deg; ++i) {
        arena_->informed_nbr_count.add(graph_->neighbor_unchecked(v, i), 1);
      }
    }
  }
  target_ =
      n - model_.count_blocked_uninformed(arena_->vertex_inform_round, n);
}

void HybridProcess::step() {
  if (sharded_) {
    with_graph_access(*graph_, [&](const auto& acc) {
      if (model_.trivial()) {
        step_sharded<transmission::Uniform>(acc);
      } else {
        step_sharded<transmission::General>(acc);
      }
    });
  } else if (model_.trivial()) {
    step_impl<transmission::Uniform>();
  } else {
    step_impl<transmission::General>();
  }
}

template <class Mode>
void HybridProcess::step_impl() {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  ++round_;
  if constexpr (kGeneral) {
    if (model_.blocking() && round_ == model_.block_round()) {
      activate_blocking();
    }
  }
  const std::size_t count = agents_.count();

  // (1) agents move (batched walk kernel).
  step_walks(*graph_, agents_.positions_mut(), rng_, laziness_);

  // (2) previously informed agents inform their vertices (stifled agents
  // and quarantined vertices excepted).
  const std::size_t informed_agents_at_start = informed_agent_count_;
  for (std::size_t idx = 0; idx < informed_agents_at_start; ++idx) {
    const Agent a = order_.at(idx);
    const Vertex v = agents_.position(a);
    if (arena_->vertex_inform_round.touched(v)) continue;
    if constexpr (kGeneral) {
      if (!model_.can_transmit<Mode>(arena_->agent_inform_round.get(a), v,
                                     round_) ||
          !model_.attempt<Mode>(v, v)) {
        continue;
      }
    }
    inform_vertex(v);
  }

  // (3) push-pull calls on informed-before-round state (fast path: only
  // state-changing calls, exactly as in PushPullProcess).
  auto& active = arena_->active;
  auto& frontier = arena_->frontier;
  std::size_t kept = 0;
  for (Vertex v : active) {
    if (arena_->informed_nbr_count.get(v) < graph_->degree_unchecked(v)) {
      if constexpr (kGeneral) {
        if (!model_.can_transmit<Mode>(arena_->vertex_inform_round.get(v), v,
                                       round_)) {
          continue;
        }
      }
      active[kept++] = v;
    }
  }
  active.resize(kept);
  kept = 0;
  for (Vertex w : frontier) {
    if (!arena_->vertex_inform_round.touched(w)) {
      if constexpr (kGeneral) {
        if (model_.blocked<Mode>(w, round_)) continue;
      }
      frontier[kept++] = w;
    }
  }
  frontier.resize(kept);

  const std::size_t pushers = active.size();
  for (std::size_t i = 0; i < pushers; ++i) {
    const Vertex u = active[i];
    if (!informed_before_this_round(u)) continue;  // informed in step (2)
    const Vertex v = graph_->random_neighbor_unchecked(u, rng_);
    if constexpr (kGeneral) {
      if (model_.blocked<Mode>(v, round_) ||
          arena_->vertex_inform_round.touched(v) ||
          !model_.attempt<Mode>(u, v)) {
        continue;
      }
      inform_vertex(v);
    } else {
      if (!arena_->vertex_inform_round.touched(v)) inform_vertex(v);
    }
  }
  const std::size_t pullers = frontier.size();
  for (std::size_t i = 0; i < pullers; ++i) {
    const Vertex w = frontier[i];
    if (arena_->vertex_inform_round.touched(w)) continue;
    const Vertex v = graph_->random_neighbor_unchecked(w, rng_);
    if (!informed_before_this_round(v)) continue;
    if constexpr (kGeneral) {
      if (!model_.can_transmit<Mode>(arena_->vertex_inform_round.get(v), v,
                                     round_) ||
          !model_.attempt<Mode>(v, w)) {
        continue;
      }
    }
    inform_vertex(w);
  }

  // (4) agents standing on informed vertices become informed (unless the
  // vertex has stifled or is quarantined).
  for (std::size_t idx = informed_agents_at_start; idx < count; ++idx) {
    const Agent a = order_.at(idx);
    const Vertex v = agents_.position(a);
    if (!arena_->vertex_inform_round.touched(v)) continue;
    if constexpr (kGeneral) {
      if (!model_.can_transmit<Mode>(arena_->vertex_inform_round.get(v), v,
                                     round_) ||
          !model_.attempt<Mode>(v, v)) {
        continue;
      }
    }
    inform_agent_at(idx);
  }

  if (options_.trace.informed_curve) {
    arena_->curve.push_back(informed_vertex_count_);
  }
}

// One frontier-sharded round — law-equivalent to step_impl<Mode>. The
// dual phase composes the sharded walk kernel with the visit-exchange
// agent passes and the push-pull round structure behind pre-cleared
// fan-outs, preserving the legacy intra-round ordering:
//
//   (1) sharded walk step  (per-walker addressable draws)
//   (2) agent-inform pass  (kShardPhaseAgentInform; slot = agent id)
//       -> serial merge informs vertices in agent-id order, which keys
//       the order of the active/frontier lists and so the push and pull
//       slots below
//   (3) caller/puller filters on the POST-(2) lists, as the serial round
//       filters after the agent informs; pusher draws (kShardPhasePush;
//       slot = compacted caller index) skip vertices informed in (2) this
//       round BEFORE drawing, exactly like the serial
//       informed_before_this_round guard -> serial push merge; puller
//       draws (kShardPhasePull; slot = filtered frontier index) read the
//       post-push-merge state and skip "pushed now" -> serial pull merge
//   (4) agent-catch pass   (kShardPhaseAgentCatch; slot = agent id) on
//       the post-(3) vertex state; each slot writes its own agent's
//       inform round in place, with no merge
//
// Every parallel slot draws from its own addressable chain, every shard
// writes only its own scratch segment or its own agents, and each merge
// visits candidates in shard-major = global slot order, so the round is a
// pure function of the round-start state and the draw plane — independent
// of partition and worker count. As in sharded push, a slot whose target
// was claimed by an earlier slot still draws its words and is discarded at
// the merge: independent variates deciding nothing observable.
template <class Mode, class Access>
void HybridProcess::step_sharded(const Access& acc) {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  ++round_;
  if constexpr (kGeneral) {
    if (model_.blocking() && round_ == model_.block_round()) {
      activate_blocking();
    }
  }
  const std::size_t count = agents_.count();

  // (1) agents move (sharded walk kernel).
  step_walks_sharded(*graph_, agents_.positions_mut(), seed_, round_,
                     laziness_, shard_width_);

  auto& scratch = arena_->shard_scratch;
  const std::uint32_t width = shard_width_;
  if (scratch.size() < width) scratch.resize(width);
  // Reserve the analytic per-shard bound (<= ceil(max(n, agents)/width)
  // items per range) once, so steady-state trials stay allocation-free.
  const std::size_t cap =
      std::max<std::size_t>(graph_->num_vertices(), count) / width + 1;
  for (std::uint32_t s = 0; s < width; ++s) {
    scratch[s].survivors.reserve(cap);
    scratch[s].candidates.reserve(cap);
  }
  const ShardPlane plane(seed_, round_);

  // (2) agent-inform candidates: the vertex each previously-informed agent
  // delivers to (round-start vertex state), in agent-id order. The clears
  // run serially before every fan-out: parallel_for_ranges clamps the
  // shard count to the item count, so a clear inside the callback would
  // skip tail segments whenever fewer items than width exist and leave
  // stale entries.
  {
    const Vertex* pos = agents_.positions().data();
    const auto agent_view = arena_->agent_inform_round.view();
    const auto informed = arena_->vertex_inform_round.view();
    for (std::uint32_t s = 0; s < width; ++s) scratch[s].candidates.clear();
    shard_pool().parallel_for_ranges(
        count, width, [&](std::size_t s, std::size_t begin, std::size_t end) {
          auto& out = scratch[s].candidates;
          for (std::size_t a = begin; a < end; ++a) {
            if (!agent_view.touched(a)) continue;
            const Vertex v = pos[a];
            if (informed.touched(v)) continue;
            if constexpr (kGeneral) {
              SlotDraws draws(plane, kShardPhaseAgentInform,
                              static_cast<std::uint32_t>(a));
              if (!model_.can_transmit<Mode>(agent_view.get(a), v, round_) ||
                  !model_.attempt_from<Mode>(v, draws)) {
                continue;
              }
            }
            out.push_back(v);
          }
        });
    for (std::uint32_t s = 0; s < width; ++s) {
      for (const Vertex v : scratch[s].candidates) {
        if (!arena_->vertex_inform_round.touched(v)) inform_vertex(v);
      }
    }
  }

  // (3) push-pull calls, filters on the post-(2) lists exactly as the
  // serial round orders them.
  auto& active = arena_->active;
  auto& frontier = arena_->frontier;
  {
    const auto sat = arena_->informed_nbr_count.view();
    const auto informed = arena_->vertex_inform_round.view();

    for (std::uint32_t s = 0; s < width; ++s) scratch[s].survivors.clear();
    shard_pool().parallel_for_ranges(
        active.size(), width,
        [&](std::size_t s, std::size_t begin, std::size_t end) {
          auto& out = scratch[s].survivors;
          for (std::size_t i = begin; i < end; ++i) {
            const Vertex v = active[i];
            if (sat.get(v) >= acc.degree(v)) continue;
            if constexpr (kGeneral) {
              if (!model_.can_transmit<Mode>(informed.get(v), v, round_)) {
                continue;
              }
            }
            out.push_back(v);
          }
        });
    active.clear();
    for (std::uint32_t s = 0; s < width; ++s) {
      active.insert(active.end(), scratch[s].survivors.begin(),
                    scratch[s].survivors.end());
    }

    for (std::uint32_t s = 0; s < width; ++s) scratch[s].survivors.clear();
    shard_pool().parallel_for_ranges(
        frontier.size(), width,
        [&](std::size_t s, std::size_t begin, std::size_t end) {
          auto& out = scratch[s].survivors;
          for (std::size_t i = begin; i < end; ++i) {
            const Vertex w = frontier[i];
            if (informed.touched(w)) continue;
            if constexpr (kGeneral) {
              if (model_.blocked<Mode>(w, round_)) continue;
            }
            out.push_back(w);
          }
        });
    frontier.clear();
    for (std::uint32_t s = 0; s < width; ++s) {
      frontier.insert(frontier.end(), scratch[s].survivors.begin(),
                      scratch[s].survivors.end());
    }
    // The push merge's informs append NEW frontier vertices; as in the
    // serial round, those pull starting NEXT round.
    const std::size_t pullers = frontier.size();

    // Pusher phase: slot = compacted caller index. Vertices informed in
    // step (2) this round survive the filter but make no call yet — the
    // serial informed_before_this_round guard, applied before any draw.
    for (std::uint32_t s = 0; s < width; ++s) scratch[s].candidates.clear();
    shard_pool().parallel_for_ranges(
        active.size(), width,
        [&](std::size_t s, std::size_t begin, std::size_t end) {
          auto& out = scratch[s].candidates;
          for (std::size_t i = begin; i < end; ++i) {
            const Vertex u = active[i];
            if (!informed_before_this_round(u)) continue;
            SlotDraws draws(plane, kShardPhasePush,
                            static_cast<std::uint32_t>(i));
            const GraphRow row = acc.row(u);
            const Vertex v = acc.pick(row, word_below(draws, row.deg));
            if constexpr (kGeneral) {
              if (model_.blocked<Mode>(v, round_) || informed.touched(v)) {
                continue;
              }
              if (!model_.attempt_from<Mode>(v, draws)) continue;
            } else {
              if (informed.touched(v)) continue;
            }
            out.push_back(v);
          }
        });
    for (std::uint32_t s = 0; s < width; ++s) {
      for (const Vertex v : scratch[s].candidates) {
        if (!arena_->vertex_inform_round.touched(v)) inform_vertex(v);
      }
    }

    // Puller phase: slot = filtered frontier index; reads the post-push
    // state, as the serial pull loop does. Frontier entries are distinct
    // (ever-in-frontier marks), so candidate pullers never collide.
    for (std::uint32_t s = 0; s < width; ++s) scratch[s].candidates.clear();
    shard_pool().parallel_for_ranges(
        pullers, width,
        [&](std::size_t s, std::size_t begin, std::size_t end) {
          auto& out = scratch[s].candidates;
          for (std::size_t i = begin; i < end; ++i) {
            const Vertex w = frontier[i];
            if (arena_->vertex_inform_round.touched(w)) continue;  // pushed
            SlotDraws draws(plane, kShardPhasePull,
                            static_cast<std::uint32_t>(i));
            const GraphRow row = acc.row(w);
            const Vertex v = acc.pick(row, word_below(draws, row.deg));
            if (!informed_before_this_round(v)) continue;
            if constexpr (kGeneral) {
              if (!model_.can_transmit<Mode>(
                      arena_->vertex_inform_round.get(v), v, round_) ||
                  !model_.attempt_from<Mode>(v, draws)) {
                continue;
              }
            }
            out.push_back(w);
          }
        });
    for (std::uint32_t s = 0; s < width; ++s) {
      for (const Vertex w : scratch[s].candidates) {
        RUMOR_CHECK(!arena_->vertex_inform_round.touched(w));
        inform_vertex(w);
      }
    }
  }

  // (4) agent catches: uninformed agents on an informed vertex (post-(3)
  // state, like the serial loop) become informed, unless the vertex has
  // stifled or is quarantined.
  const std::size_t agent_informs = catch_agents_sharded<Mode>(
      *arena_, model_, agents_.positions(), plane, round_, width);
  informed_agent_count_ += agent_informs;
  if (agent_informs > 0) last_inform_round_ = round_;

  if (options_.trace.informed_curve) {
    arena_->curve.push_back(informed_vertex_count_);
  }
}

bool HybridProcess::halted() const {
  if (done() || round_ >= cutoff_) return true;
  if (model_.trivial()) return false;
  if (informed_vertex_count_ >= target_) return true;  // containment
  return model_.extinct(round_, last_inform_round_);
}

RunResult HybridProcess::run() {
  while (!halted()) step();
  RunResult result;
  result.rounds = round_;
  result.completed = done();
  result.agent_rounds = round_;
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
