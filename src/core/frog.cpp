#include "core/frog.hpp"

#include "core/registry.hpp"
#include "support/spec_text.hpp"

namespace rumor {

FrogProcess::FrogProcess(const Graph& g, Vertex source, std::uint64_t seed,
                         FrogOptions options, TrialArena* arena)
    : graph_(&g),
      rng_(seed),
      options_(options),
      trial_(options.max_rounds, g.num_vertices(), options.trace,
             InformRounds::vertices),
      arena_(arena),
      positions_(&arena_->agent_positions),
      frog_count_(static_cast<std::size_t>(g.num_vertices()) *
                  options.frogs_per_vertex) {
  RUMOR_REQUIRE(source < g.num_vertices());
  RUMOR_REQUIRE(options.frogs_per_vertex >= 1);
  model_.bind(g, options_.transmission, *arena_, seed);
  target_awake_ = frog_count_;
  positions_->resize(frog_count_);
  for (std::size_t f = 0; f < frog_count_; ++f) {
    (*positions_)[f] = static_cast<Vertex>(f / options_.frogs_per_vertex);
  }
  arena_->vertex_inform_round.reset(g.num_vertices(), kNeverInformed);
  order_.reset(*arena_, frog_count_);

  // Round 0: the source is "visited"; its frogs wake.
  wake_at(source);
}

void FrogProcess::wake_at(Vertex v) {
  if (arena_->vertex_inform_round.touched(v)) return;
  arena_->vertex_inform_round.set(v, static_cast<std::uint32_t>(round_));
  last_inform_round_ = round_;
  // Wake the frogs native to v (they are asleep iff v was unvisited).
  const std::size_t base =
      static_cast<std::size_t>(v) * options_.frogs_per_vertex;
  for (std::uint32_t i = 0; i < options_.frogs_per_vertex; ++i) {
    const auto f = static_cast<std::uint32_t>(base + i);
    const std::uint32_t idx = order_.index_of(f);
    RUMOR_CHECK(idx >= awake_count_);
    order_.swap(idx, awake_count_);
    ++awake_count_;
  }
}

void FrogProcess::activate_blocking() {
  // Sleepers at quarantined unvisited vertices can never wake.
  const Vertex n = graph_->num_vertices();
  const std::size_t unreachable =
      model_.count_blocked_uninformed(arena_->vertex_inform_round, n);
  target_awake_ = frog_count_ - unreachable * options_.frogs_per_vertex;
}

void FrogProcess::step() {
  if (model_.trivial()) {
    step_impl<transmission::Uniform>();
  } else {
    step_impl<transmission::General>();
  }
}

template <class Mode>
void FrogProcess::step_impl() {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  ++round_;
  if constexpr (kGeneral) {
    if (model_.blocking() && round_ == model_.block_round()) {
      activate_blocking();
    }
  }
  // Frogs awake at the start of the round walk one step; every vertex they
  // land on wakes its sleepers (who start walking next round). Stifled
  // frogs keep walking but wake nobody; quarantined vertices never wake.
  const std::size_t awake_at_start = awake_count_;
  for (std::size_t idx = 0; idx < awake_at_start; ++idx) {
    const std::uint32_t f = order_.at(idx);
    const Vertex v =
        step_from(*graph_, (*positions_)[f], rng_, options_.laziness);
    (*positions_)[f] = v;
    if constexpr (kGeneral) {
      if (arena_->vertex_inform_round.touched(v) ||
          !model_.can_transmit<Mode>(wake_round(f), v, round_) ||
          !model_.attempt<Mode>(v, v)) {
        continue;
      }
    }
    wake_at(v);
  }
}

RoundProgress FrogProcess::progress() const {
  return {.informed = awake_count_,
          .target = target_awake_,
          .last_inform = last_inform_round_};
}

RunResult FrogProcess::run() { return trial_.run(*this, model_, *arena_); }

RunResult run_frog(const Graph& g, Vertex source, std::uint64_t seed,
                   FrogOptions options, TrialArena* arena) {
  return FrogProcess(g, source, seed, options, arena).run();
}

// ---- Scenario registry entry ------------------------------------------

namespace {

void frog_entry_format(const ProtocolOptions& options,
                       const ProtocolOptions& defaults,
                       spec_text::KeyValWriter& out) {
  const auto& opt = std::get<FrogOptions>(options);
  const auto& def = std::get<FrogOptions>(defaults);
  if (opt.frogs_per_vertex != def.frogs_per_vertex) {
    out.add("frogs", static_cast<std::uint64_t>(opt.frogs_per_vertex));
  }
  if (opt.laziness != def.laziness) {
    out.add("lazy", opt.laziness == Laziness::half ? "half" : "none");
  }
  if (opt.max_rounds != def.max_rounds) {
    out.add("max_rounds", static_cast<std::uint64_t>(opt.max_rounds));
  }
  format_transmission_options(opt.transmission, def.transmission, out);
  format_trace_options(opt.trace, def.trace, out);
}

bool frog_entry_set(ProtocolOptions& options, std::string_view key,
                    std::string_view value) {
  auto& opt = std::get<FrogOptions>(options);
  if (key == "frogs") {
    const auto v = spec_text::parse_u64(value);
    if (!v || *v == 0) return false;
    opt.frogs_per_vertex = static_cast<std::uint32_t>(*v);
    return true;
  }
  if (key == "lazy") {
    if (value == "none") {
      opt.laziness = Laziness::none;
    } else if (value == "half") {
      opt.laziness = Laziness::half;
    } else {
      return false;
    }
    return true;
  }
  if (key == "max_rounds") {
    const auto v = spec_text::parse_u64(value);
    if (!v) return false;
    opt.max_rounds = *v;
    return true;
  }
  if (set_transmission_option(opt.transmission, key, value)) return true;
  return set_trace_option(opt.trace, key, value);
}

}  // namespace

void register_frog_simulator(SimulatorRegistry& registry) {
  add_round_simulator<FrogProcess, FrogOptions>(
      registry, {.id = Protocol::frog,
                 .name = "frog",
                 .summary = "frog model: sleeping per-vertex walkers woken "
                            "(and recruited) by visits",
                 .defaults = FrogOptions{},
                 .format_options = frog_entry_format,
                 .set_option = frog_entry_set});
}

}  // namespace rumor
