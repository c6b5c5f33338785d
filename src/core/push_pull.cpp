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
      trial_(options.max_rounds, g.num_vertices(), options.trace,
             InformRounds::vertices),
      arena_(arena),
      calls_(g, model_, *arena_) {
  RUMOR_REQUIRE(source < g.num_vertices());
  model_.bind(g, options_.transmission, *arena_, seed);
  sharded_ = sharding_enabled(options_.shards, g.num_vertices());
  if (sharded_) {
    shard_width_ = resolve_shard_width(options_.shards);
    seed_ = seed;
  }
  calls_.inform(source, 0);
}

void PushPullProcess::step() {
  ++round_;
  if (model_.blocking() && round_ == model_.block_round()) {
    calls_.activate_blocking();
  }
  if (sharded_) {
    calls_.sharded(round_, ShardPlane(seed_, round_), shard_width_);
  } else {
    calls_.serial(round_, rng_);
  }
}

RoundProgress PushPullProcess::progress() const {
  // No callers left: pushes are gone, and a successful pull would need an
  // informed, transmitting vertex with an uninformed unblocked neighbor —
  // which is exactly a vertex the caller filter would have kept.
  return {.informed = calls_.informed_count(),
          .target = calls_.target(),
          .last_inform = calls_.last_inform_round(),
          .no_callers = calls_.no_callers()};
}

RunResult PushPullProcess::run() {
  return trial_.run(*this, model_, *arena_);
}

RunResult run_push_pull(const Graph& g, Vertex source, std::uint64_t seed,
                        PushPullOptions options) {
  return PushPullProcess(g, source, seed, options).run();
}

// ---- Scenario registry entry ------------------------------------------

namespace {

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

}  // namespace

void register_push_pull_simulator(SimulatorRegistry& registry) {
  add_round_simulator<PushPullProcess, PushPullOptions>(
      registry,
      {.id = Protocol::push_pull,
       .name = "push-pull",
       .summary = "PUSH-PULL: every vertex calls; informed pairs exchange",
       .defaults = PushPullOptions{},
       .format_options = push_pull_entry_format,
       .set_option = push_pull_entry_set});
}

}  // namespace rumor
