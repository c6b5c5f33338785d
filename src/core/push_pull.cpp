#include "core/push_pull.hpp"

#include "core/registry.hpp"
#include "core/sharding.hpp"
#include "graph/access.hpp"
#include "support/philox.hpp"
#include "support/spec_text.hpp"
#include "walk/step_kernel.hpp"  // word_below: the shared Lemire slot draw

namespace rumor {

PushPullRound::PushPullRound(const Graph& g, TransmissionModel& model,
                             TrialArena& arena, LatePulls late_pulls)
    : graph_(&g),
      model_(&model),
      arena_(&arena),
      late_pulls_(late_pulls),
      target_(g.num_vertices()) {
  const Vertex n = g.num_vertices();
  arena.vertex_inform_round.reset(n, kNeverInformed);
  arena.informed_nbr_count.reset(n, 0);
  arena.vertex_marks.reset(n);  // ever-in-frontier marks
  arena.active.clear();
  arena.active.reserve(n);  // high-water once, then free
  arena.frontier.clear();
  arena.frontier.reserve(n);
}

void PushPullRound::inform(Vertex v, Round round) {
  RUMOR_CHECK(!arena_->vertex_inform_round.touched(v));
  arena_->vertex_inform_round.set(v, static_cast<std::uint32_t>(round));
  ++informed_count_;
  last_inform_round_ = round;
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

void PushPullRound::activate_blocking() {
  const std::uint8_t* blocked = model_->blocked_flags();
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
      n - model_->count_blocked_uninformed(arena_->vertex_inform_round, n);
}

void PushPullRound::serial(Round round, Rng& rng) {
  if (model_->trivial()) {
    serial_impl<transmission::Uniform>(round, rng);
  } else {
    serial_impl<transmission::General>(round, rng);
  }
}

void PushPullRound::sharded(Round round, const ShardPlane& plane,
                            std::uint32_t width) {
  with_graph_access(*graph_, [&](const auto& acc) {
    if (model_->trivial()) {
      sharded_impl<transmission::Uniform>(round, acc, plane, width);
    } else {
      sharded_impl<transmission::General>(round, acc, plane, width);
    }
  });
}

template <class Mode>
void PushPullRound::serial_impl(Round round, Rng& rng) {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  auto& informed = arena_->vertex_inform_round;
  auto& active = arena_->active;
  auto& frontier = arena_->frontier;
  std::size_t kept = 0;
  for (Vertex v : active) {
    if (arena_->informed_nbr_count.get(v) < graph_->degree_unchecked(v)) {
      if constexpr (kGeneral) {
        if (!model_->can_transmit<Mode>(informed.get(v), v, round)) continue;
      }
      active[kept++] = v;
    }
  }
  active.resize(kept);
  kept = 0;
  for (Vertex w : frontier) {
    if (!informed.touched(w)) {
      if constexpr (kGeneral) {
        if (model_->blocked<Mode>(w, round)) continue;
      }
      frontier[kept++] = w;
    }
  }
  frontier.resize(kept);

  // Vertices the pushes inform join the callers, which push from next
  // round, and their neighbours join the pullers (see LatePulls).
  const std::size_t pushers = active.size();
  std::size_t pullers = frontier.size();
  for (std::size_t i = 0; i < pushers; ++i) {
    const Vertex u = active[i];
    if (!informed_before(u, round)) continue;  // an agent informed it now
    const Vertex v = graph_->random_neighbor_unchecked(u, rng);
    if (informed.touched(v)) continue;
    if constexpr (kGeneral) {
      if (model_->blocked<Mode>(v, round) || !model_->attempt<Mode>(u, v)) {
        continue;
      }
    }
    inform(v, round);
  }
  if (late_pulls_ == LatePulls::draw) pullers = frontier.size();
  for (std::size_t i = 0; i < pullers; ++i) {
    const Vertex w = frontier[i];
    if (informed.touched(w)) continue;  // pushed now
    const Vertex v = graph_->random_neighbor_unchecked(w, rng);
    if (!informed_before(v, round)) continue;
    if constexpr (kGeneral) {
      if (!model_->can_transmit<Mode>(informed.get(v), v, round) ||
          !model_->attempt<Mode>(v, w)) {
        continue;
      }
    }
    inform(w, round);
  }
}

// One frontier-sharded round, law-equivalent to serial(). Structure (P =
// parallel over balanced ranges on the ambient shard pool, S = serial):
//
//   P filter callers (round-start state)     -> S ordered concat
//   P filter pullers (round-start state)     -> S ordered concat
//   P pusher draws   (round-start state)     -> S push merge (informs)
//   P puller draws   (post-push-merge state) -> S pull merge (informs)
//
// A pusher's slot is its compacted caller index and a puller's its
// filtered frontier index; the phase keeps the two apart. Every merge
// visits candidates in shard-major = global slot order, so the round is a
// pure function of the round-start state and the draw plane, independent
// of partition and worker count. The puller phase reading post-push state
// mirrors the serial ordering (pulls run after pushes and skip vertices
// "pushed now"); it is deterministic because the push merge it reads is
// itself partition-independent. As in sharded push, a slot whose target
// was claimed earlier in slot order still draws its words and is discarded
// at the merge: independent variates that decide nothing observable, so
// the process law matches.
template <class Mode, class Access>
void PushPullRound::sharded_impl(Round round, const Access& acc,
                                 const ShardPlane& plane,
                                 std::uint32_t width) {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  auto& active = arena_->active;
  auto& frontier = arena_->frontier;
  const std::size_t n = graph_->num_vertices();
  const auto sat = arena_->informed_nbr_count.view();
  const auto informed = arena_->vertex_inform_round.view();

  filter_pass(*arena_, active, n, width, [&](Vertex v) {
    if (sat.get(v) >= acc.degree(v)) return false;
    if constexpr (kGeneral) {
      return model_->can_transmit<Mode>(informed.get(v), v, round);
    }
    return true;
  });
  filter_pass(*arena_, frontier, n, width, [&](Vertex w) {
    if (informed.touched(w)) return false;
    if constexpr (kGeneral) return !model_->blocked<Mode>(w, round);
    return true;
  });
  const std::size_t pullers = frontier.size();

  merge_pass(
      *arena_, active.size(), n, width,
      [&](std::size_t i) {
        const Vertex u = active[i];
        if (!informed_before(u, round)) return kNoVertex;  // agent-informed
        SlotDraws draws(plane, kShardPhasePush, static_cast<std::uint32_t>(i));
        const GraphRow row = acc.row(u);
        const Vertex v = acc.pick(row, word_below(draws, row.deg));
        if (informed.touched(v)) return kNoVertex;
        if constexpr (kGeneral) {
          if (model_->blocked<Mode>(v, round) ||
              !model_->attempt_from<Mode>(v, draws)) {
            return kNoVertex;
          }
        }
        return v;
      },
      [&](Vertex v) {
        if (!informed.touched(v)) inform(v, round);
      });
  // Frontier entries are distinct (ever-in-frontier marks), so candidate
  // pullers never collide.
  merge_pass(
      *arena_, pullers, n, width,
      [&](std::size_t i) {
        const Vertex w = frontier[i];
        if (informed.touched(w)) return kNoVertex;  // pushed now
        SlotDraws draws(plane, kShardPhasePull, static_cast<std::uint32_t>(i));
        const GraphRow row = acc.row(w);
        const Vertex v = acc.pick(row, word_below(draws, row.deg));
        if (!informed_before(v, round)) return kNoVertex;
        if constexpr (kGeneral) {
          if (!model_->can_transmit<Mode>(informed.get(v), v, round) ||
              !model_->attempt_from<Mode>(v, draws)) {
            return kNoVertex;
          }
        }
        return w;
      },
      [&](Vertex w) { inform(w, round); });
}

PushPullProcess::PushPullProcess(const Graph& g, Vertex source,
                                 std::uint64_t seed, PushPullOptions options,
                                 TrialArena* arena)
    : graph_(&g),
      rng_(seed),
      options_(options),
      cutoff_(options.max_rounds != 0 ? options.max_rounds
                                      : default_round_cutoff(g.num_vertices())),
      owned_arena_(arena != nullptr ? nullptr : std::make_unique<TrialArena>()),
      arena_(arena != nullptr ? arena : owned_arena_.get()),
      calls_(g, model_, *arena_) {
  RUMOR_REQUIRE(source < g.num_vertices());
  model_.bind(g, options_.transmission, *arena_, seed,
              /*need_edge_field=*/options_.trace.edge_traffic);
  // The sharded engine covers the untraced fast path only: the
  // exact-bandwidth traced round is defined by one serial call per vertex.
  // edge_traffic is C++-only (no scenario key), so this REQUIRE guards
  // API callers.
  sharded_ = sharding_enabled(options_.shards, g.num_vertices());
  if (sharded_) {
    RUMOR_REQUIRE(!options_.trace.edge_traffic);
    shard_width_ = resolve_shard_width(options_.shards);
    seed_ = seed;
  }
  if (options_.trace.informed_curve) arena_->curve.clear();
  if (options_.trace.edge_traffic) {
    // The exact-bandwidth path makes every vertex call a neighbor each
    // round; validated once here so the unchecked per-round loop needs no
    // per-vertex degree branch.
    RUMOR_REQUIRE(g.min_degree() > 0);
    arena_->edge_traffic.assign(g.num_edges(), 0);
  }
  calls_.inform(source, 0);
  if (options_.trace.informed_curve) {
    arena_->curve.push_back(calls_.informed_count());
  }
}

void PushPullProcess::step() {
  ++round_;
  if (model_.blocking() && round_ == model_.block_round()) {
    calls_.activate_blocking();
  }
  if (options_.trace.edge_traffic) {
    if (model_.trivial()) {
      step_traced<transmission::Uniform>();
    } else {
      step_traced<transmission::General>();
    }
  } else if (sharded_) {
    calls_.sharded(round_, ShardPlane(seed_, round_), shard_width_);
  } else {
    calls_.serial(round_, rng_);
  }
  if (options_.trace.informed_curve) {
    arena_->curve.push_back(calls_.informed_count());
  }
}

// Exact-bandwidth path: every vertex makes its call (the definition), so
// per-edge utilization counts every call, not only state-changing ones.
// Used by the fairness experiments; O(n) per round. Quarantined callers
// initiate no call at all; calls TO a quarantined callee still count as
// traffic but deliver nothing.
template <class Mode>
void PushPullProcess::step_traced() {
  const Vertex n = graph_->num_vertices();
  for (Vertex u = 0; u < n; ++u) {
    if (model_.blocked<Mode>(u, round_)) continue;
    const auto [v, slot] = graph_->random_neighbor_slot_unchecked(u, rng_);
    ++arena_->edge_traffic[graph_->edge_id_unchecked(u, slot)];
    const bool u_was = calls_.informed_before(u, round_);
    const bool v_was = calls_.informed_before(v, round_);
    if (u_was == v_was) continue;
    const Vertex target = u_was ? v : u;
    if (arena_->vertex_inform_round.touched(target)) continue;
    if constexpr (std::is_same_v<Mode, transmission::General>) {
      const Vertex transmitter = u_was ? u : v;
      if (!model_.can_transmit<Mode>(
              arena_->vertex_inform_round.get(transmitter), transmitter,
              round_) ||
          model_.blocked<Mode>(target, round_)) {
        continue;
      }
      // The callee-side delivery reads the per-edge field through the
      // caller's slot; the pull direction reads the per-vertex field.
      const bool delivered = target == v ? model_.attempt_slot<Mode>(u, slot)
                                         : model_.attempt<Mode>(v, u);
      if (!delivered) continue;
    }
    calls_.inform(target, round_);
  }
}

bool PushPullProcess::halted() const {
  if (done() || round_ >= cutoff_) return true;
  if (model_.trivial()) return false;
  if (calls_.informed_count() >= calls_.target()) return true;  // contained
  // No active transmitters: pushes are gone, and a successful pull would
  // need an informed, transmitting vertex with an uninformed unblocked
  // neighbor — which is exactly a vertex the caller filter would have
  // kept. (Only meaningful on the untraced fast path, where the filter
  // runs; the exact-bandwidth path iterates all vertices regardless.)
  if (!options_.trace.edge_traffic && round_ > 0 && calls_.no_callers()) {
    return true;
  }
  return model_.extinct(round_, calls_.last_inform_round());
}

RunResult PushPullProcess::run() {
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
  }
  if (options_.trace.edge_traffic) result.edge_traffic = arena_->edge_traffic;
  return result;
}

RunResult run_push_pull(const Graph& g, Vertex source, std::uint64_t seed,
                        PushPullOptions options) {
  return PushPullProcess(g, source, seed, options).run();
}

// ---- Scenario registry entry ------------------------------------------

namespace {

TrialResult push_pull_entry_run(const Graph& g, const ProtocolOptions& options,
                                Vertex source, std::uint64_t seed,
                                TrialArena* arena) {
  return to_trial_result(
      PushPullProcess(g, source, seed, std::get<PushPullOptions>(options),
                      arena)
          .run());
}

void push_pull_entry_format(const ProtocolOptions& options,
                            const ProtocolOptions& defaults,
                            spec_text::KeyValWriter& out) {
  const auto& opt = std::get<PushPullOptions>(options);
  const auto& def = std::get<PushPullOptions>(defaults);
  if (opt.max_rounds != def.max_rounds) {
    out.add("max_rounds", static_cast<std::uint64_t>(opt.max_rounds));
  }
  format_shards_option(opt.shards, def.shards, out);
  format_transmission_options(opt.transmission, def.transmission, out);
  format_trace_options(opt.trace, def.trace, out);
}

bool push_pull_entry_set(ProtocolOptions& options, std::string_view key,
                         std::string_view value) {
  auto& opt = std::get<PushPullOptions>(options);
  if (key == "max_rounds") {
    const auto v = spec_text::parse_u64(value);
    if (!v) return false;
    opt.max_rounds = *v;
    return true;
  }
  if (key == "shards") return set_shards_option(opt.shards, value);
  if (set_transmission_option(opt.transmission, key, value)) return true;
  return set_trace_option(opt.trace, key, value);
}

TraceOptions* push_pull_entry_trace(ProtocolOptions& options) {
  return &std::get<PushPullOptions>(options).trace;
}

}  // namespace

void register_push_pull_simulator(SimulatorRegistry& registry) {
  SimulatorEntry entry;
  entry.id = Protocol::push_pull;
  entry.name = "push-pull";
  entry.summary = "PUSH-PULL: every vertex calls; informed pairs exchange";
  entry.defaults = PushPullOptions{};
  entry.run = push_pull_entry_run;
  entry.format_options = push_pull_entry_format;
  entry.set_option = push_pull_entry_set;
  entry.trace = push_pull_entry_trace;
  registry.add(std::move(entry));
}

}  // namespace rumor
