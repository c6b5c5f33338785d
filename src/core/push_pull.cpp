#include "core/push_pull.hpp"

#include "core/registry.hpp"
#include "core/sharding.hpp"
#include "graph/access.hpp"
#include "support/philox.hpp"
#include "support/spec_text.hpp"
#include "support/thread_pool.hpp"
#include "walk/step_kernel.hpp"  // word_below: the shared Lemire slot draw

namespace rumor {

PushPullProcess::PushPullProcess(const Graph& g, Vertex source,
                                 std::uint64_t seed, PushPullOptions options,
                                 TrialArena* arena)
    : graph_(&g),
      rng_(seed),
      options_(options),
      cutoff_(options.max_rounds != 0 ? options.max_rounds
                                      : default_round_cutoff(g.num_vertices())),
      owned_arena_(arena != nullptr ? nullptr : std::make_unique<TrialArena>()),
      arena_(arena != nullptr ? arena : owned_arena_.get()) {
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
  target_ = g.num_vertices();
  arena_->vertex_inform_round.reset(g.num_vertices(), kNeverInformed);
  arena_->informed_nbr_count.reset(g.num_vertices(), 0);
  arena_->vertex_marks.reset(g.num_vertices());  // ever-in-frontier marks
  arena_->active.clear();
  arena_->active.reserve(g.num_vertices());  // high-water once, then free
  arena_->frontier.clear();
  arena_->frontier.reserve(g.num_vertices());
  if (options_.trace.informed_curve) arena_->curve.clear();
  if (options_.trace.edge_traffic) {
    // The exact-bandwidth path makes every vertex call a neighbor each
    // round; validated once here so the unchecked per-round loop needs no
    // per-vertex degree branch.
    RUMOR_REQUIRE(g.min_degree() > 0);
    arena_->edge_traffic.assign(g.num_edges(), 0);
  }
  inform(source);
  if (options_.trace.informed_curve) arena_->curve.push_back(informed_count_);
}

void PushPullProcess::inform(Vertex v) {
  RUMOR_CHECK(!arena_->vertex_inform_round.touched(v));
  arena_->vertex_inform_round.set(v, static_cast<std::uint32_t>(round_));
  ++informed_count_;
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

void PushPullProcess::step() {
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

void PushPullProcess::activate_blocking() {
  // As in PushProcess: quarantined-uninformed vertices count into the
  // neighbor counters so saturation retirement treats them as permanently
  // unreachable, and an empty caller list halts the run.
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

template <class Mode>
void PushPullProcess::step_impl() {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  ++round_;
  if constexpr (kGeneral) {
    if (model_.blocking() && round_ == model_.block_round()) {
      activate_blocking();
    }
  }

  if (options_.trace.edge_traffic) {
    // Exact-bandwidth path: every vertex makes its call (the definition) so
    // per-edge utilization counts every call, not only state-changing ones.
    // Used by the fairness experiments; O(n) per round. Quarantined callers
    // initiate no call at all; calls TO a quarantined callee still count as
    // traffic but deliver nothing.
    const Vertex n = graph_->num_vertices();
    for (Vertex u = 0; u < n; ++u) {
      if constexpr (kGeneral) {
        if (model_.blocked<Mode>(u, round_)) continue;
      }
      const auto [v, slot] = graph_->random_neighbor_slot_unchecked(u, rng_);
      ++arena_->edge_traffic[graph_->edge_id_unchecked(u, slot)];
      const bool u_was = informed_before_this_round(u);
      const bool v_was = informed_before_this_round(v);
      if (u_was == v_was) continue;
      const Vertex target = u_was ? v : u;
      if (arena_->vertex_inform_round.touched(target)) continue;
      if constexpr (kGeneral) {
        const Vertex transmitter = u_was ? u : v;
        if (!model_.can_transmit<Mode>(
                arena_->vertex_inform_round.get(transmitter), transmitter,
                round_) ||
            model_.blocked<Mode>(target, round_)) {
          continue;
        }
        // The callee-side delivery reads the per-edge field through the
        // caller's slot; the pull direction reads the per-vertex field.
        const bool delivered =
            target == v ? model_.attempt_slot<Mode>(u, slot)
                        : model_.attempt<Mode>(v, u);
        if (!delivered) continue;
      }
      inform(target);
    }
  } else {
    // Fast path: iterate exactly the calls that can change state. Stifled
    // and quarantined pushers retire like saturated ones (both conditions
    // are permanent); quarantined frontier vertices can never be informed
    // and drop out the same way.
    auto& active = arena_->active;
    auto& frontier = arena_->frontier;
    std::size_t kept = 0;
    for (Vertex v : active) {
      if (arena_->informed_nbr_count.get(v) < graph_->degree_unchecked(v)) {
        if constexpr (kGeneral) {
          if (!model_.can_transmit<Mode>(arena_->vertex_inform_round.get(v),
                                         v, round_)) {
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
    const std::size_t pullers = frontier.size();

    for (std::size_t i = 0; i < pushers; ++i) {
      const Vertex u = active[i];
      const Vertex v = graph_->random_neighbor_unchecked(u, rng_);
      if constexpr (kGeneral) {
        if (model_.blocked<Mode>(v, round_) ||
            arena_->vertex_inform_round.touched(v) ||
            !model_.attempt<Mode>(u, v)) {
          continue;
        }
        inform(v);
      } else {
        if (!arena_->vertex_inform_round.touched(v)) inform(v);
      }
    }
    for (std::size_t i = 0; i < pullers; ++i) {
      const Vertex w = frontier[i];
      if (arena_->vertex_inform_round.touched(w)) continue;  // pushed now
      const Vertex v = graph_->random_neighbor_unchecked(w, rng_);
      if (!informed_before_this_round(v)) continue;
      if constexpr (kGeneral) {
        if (!model_.can_transmit<Mode>(arena_->vertex_inform_round.get(v), v,
                                       round_) ||
            !model_.attempt<Mode>(v, w)) {
          continue;
        }
      }
      inform(w);
    }
  }

  if (options_.trace.informed_curve) arena_->curve.push_back(informed_count_);
}

// One frontier-sharded round — law-equivalent to the untraced fast path of
// step_impl<Mode>. Structure (P = parallel over balanced ranges on the
// ambient shard pool, S = serial):
//
//   P filter callers (round-start state)     -> S ordered concat
//   P filter pullers (round-start state)     -> S ordered concat
//   P pusher draws   (round-start state)     -> S push merge (informs)
//   P puller draws   (post-push-merge state) -> S pull merge (informs)
//
// Every parallel slot draws from its own addressable chain (phase
// separates pushers from pullers), every shard writes only its own scratch
// segment, and each merge visits candidates in shard-major = global slot
// order, so the whole round is a pure function of the round-start state
// and the draw plane — independent of partition and worker count. The
// puller phase reading post-push state mirrors the serial ordering (pulls
// run after pushes and skip vertices "pushed now"); it is deterministic
// because the push merge it reads is itself partition-independent. As in
// sharded push, a slot whose target was claimed earlier in slot order
// still draws its words and is discarded at the merge — independent
// variates that decide nothing observable, so the process law matches.
template <class Mode, class Access>
void PushPullProcess::step_sharded(const Access& acc) {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  ++round_;
  if constexpr (kGeneral) {
    if (model_.blocking() && round_ == model_.block_round()) {
      activate_blocking();
    }
  }

  auto& active = arena_->active;
  auto& frontier = arena_->frontier;
  auto& scratch = arena_->shard_scratch;
  const std::uint32_t width = shard_width_;
  if (scratch.size() < width) scratch.resize(width);
  // Reserve the analytic per-shard bound (<= ceil(n/width) items per
  // range; ~n total) once, so steady-state trials stay allocation-free
  // instead of reallocating at each trial's random high-water mark.
  const std::size_t cap = graph_->num_vertices() / width + 1;
  for (std::uint32_t s = 0; s < width; ++s) {
    scratch[s].survivors.reserve(cap);
    scratch[s].candidates.reserve(cap);
  }

  const auto sat = arena_->informed_nbr_count.view();
  const auto informed = arena_->vertex_inform_round.view();

  // Caller filter (the serial retirement sweep, shard-concatenated). Every
  // pass clears ALL width segments serially up front: parallel_for_ranges
  // clamps the shard count to the item count, so a clear inside the
  // callback would skip the tail segments whenever the list is shorter
  // than the width and leave stale entries for the concat/merge.
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

  // Puller filter: still round-start state (runs before any inform).
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

  const ShardPlane plane(seed_, round_);

  // Pusher phase: slot = compacted caller index.
  for (std::uint32_t s = 0; s < width; ++s) scratch[s].candidates.clear();
  shard_pool().parallel_for_ranges(
      active.size(), width,
      [&](std::size_t s, std::size_t begin, std::size_t end) {
        auto& out = scratch[s].candidates;
        for (std::size_t i = begin; i < end; ++i) {
          const Vertex u = active[i];
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
      if (!arena_->vertex_inform_round.touched(v)) inform(v);
    }
  }

  // Puller phase: slot = filtered frontier index; reads the post-push
  // state, as the serial pull loop does. Frontier entries are distinct
  // (ever-in-frontier marks), so candidate pullers never collide; a puller
  // informed by a push THIS round is skipped exactly like serial "pushed
  // now". A vertex informed this round (r == round_) is not a valid pull
  // source in either engine (informed_before_this_round).
  for (std::uint32_t s = 0; s < width; ++s) scratch[s].candidates.clear();
  shard_pool().parallel_for_ranges(
      pullers, width, [&](std::size_t s, std::size_t begin, std::size_t end) {
        auto& out = scratch[s].candidates;
        for (std::size_t i = begin; i < end; ++i) {
          const Vertex w = frontier[i];
          if (arena_->vertex_inform_round.touched(w)) continue;  // pushed now
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
      inform(w);
    }
  }

  if (options_.trace.informed_curve) arena_->curve.push_back(informed_count_);
}

bool PushPullProcess::halted() const {
  if (done() || round_ >= cutoff_) return true;
  if (model_.trivial()) return false;
  if (informed_count_ >= target_) return true;  // blocking containment
  // No active transmitters: pushes are gone, and a successful pull would
  // need an informed, transmitting vertex with an uninformed unblocked
  // neighbor — which is exactly a vertex the caller filter would have
  // kept. (Only meaningful on the untraced fast path, where the filter
  // runs; the exact-bandwidth path iterates all vertices regardless.)
  if (!options_.trace.edge_traffic && round_ > 0 && arena_->active.empty()) {
    return true;
  }
  return model_.extinct(round_, last_inform_round_);
}

RunResult PushPullProcess::run() {
  while (!halted()) step();
  RunResult result;
  result.rounds = round_;
  result.completed = done();
  result.agent_rounds = round_;
  result.informed = informed_count_;
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
