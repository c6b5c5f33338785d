#include "core/dynamic_agents.hpp"

#include "core/registry.hpp"
#include "support/spec_text.hpp"

#include "walk/alias.hpp"

namespace rumor {

namespace {

// Checked before any member that consumes the stationary distribution is
// built: on an edgeless graph every degree weight is zero, so placement and
// respawn sampling are undefined. Failing here gives the caller the real
// precondition instead of an alias-table invariant.
const Graph& checked_substrate(const Graph& g) {
  RUMOR_REQUIRE(g.num_edges() > 0);
  return g;
}

}  // namespace

DynamicVisitExchangeProcess::DynamicVisitExchangeProcess(
    const Graph& g, Vertex source, std::uint64_t seed,
    DynamicAgentOptions options, TrialArena* arena)
    : graph_(&checked_substrate(g)),
      rng_(seed),
      options_(options),
      trial_(options.walk.max_rounds, g.num_vertices(), options.walk.trace,
             InformRounds::both),
      arena_(arena),
      agents_(g, resolve_agent_count(g, options.walk), options.walk.placement,
              rng_, resolve_anchor(options.walk, source), arena_.get()),
      stationary_(&stationary_sampler(g, arena_.get(), sampler_keepalive_)) {
  RUMOR_REQUIRE(source < g.num_vertices());
  RUMOR_REQUIRE(options.churn >= 0.0 && options.churn < 1.0);
  RUMOR_REQUIRE(options.loss_fraction >= 0.0 && options.loss_fraction <= 1.0);
  model_.bind(g, options_.walk.transmission, *arena_, seed);
  target_ = g.num_vertices();
  const std::size_t count = agents_.count();
  alive_count_ = count;
  arena_->vertex_inform_round.reset(g.num_vertices(), kNeverInformed);
  arena_->agent_inform_round.reset(count, kNeverInformed);
  arena_->agent_alive.reset(count, 1);
  arena_->agent_marks.reset(count);  // born-this-round marks

  arena_->vertex_inform_round.set(source, 0);
  informed_vertex_count_ = 1;
  for (Agent a = 0; a < count; ++a) {
    if (agents_.position(a) == source) {
      arena_->agent_inform_round.set(a, 0);
      ++informed_agent_count_;
    }
  }
}

void DynamicVisitExchangeProcess::respawn(Agent a) {
  if (arena_->agent_inform_round.get(a) != kNeverInformed) {
    --informed_agent_count_;
  }
  arena_->agent_inform_round.set(a, kNeverInformed);
  agents_.set_position(a, static_cast<Vertex>(stationary_->sample(rng_)));
}

void DynamicVisitExchangeProcess::kill(Agent a) {
  if (arena_->agent_alive.get(a) == 0) return;
  if (arena_->agent_inform_round.get(a) != kNeverInformed) {
    --informed_agent_count_;
  }
  arena_->agent_inform_round.set(a, kNeverInformed);
  arena_->agent_alive.set(a, 0);
  --alive_count_;
}

void DynamicVisitExchangeProcess::activate_blocking() {
  const Vertex n = graph_->num_vertices();
  target_ =
      n - model_.count_blocked_uninformed(arena_->vertex_inform_round, n);
}

void DynamicVisitExchangeProcess::step() {
  if (model_.trivial()) {
    step_impl<transmission::Uniform>();
  } else {
    step_impl<transmission::General>();
  }
}

template <class Mode>
void DynamicVisitExchangeProcess::step_impl() {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  ++round_;
  if constexpr (kGeneral) {
    if (model_.blocking() && round_ == model_.block_round()) {
      activate_blocking();
    }
  }
  const std::size_t count = agents_.count();

  // Correlated one-shot loss (experiment E16).
  if (round_ == options_.loss_round && options_.loss_fraction > 0.0) {
    for (Agent a = 0; a < count; ++a) {
      if (arena_->agent_alive.get(a) != 0 &&
          rng_.chance(options_.loss_fraction)) {
        kill(a);
      }
    }
  }

  // Churn: dead-and-reborn agents appear uninformed at a stationary vertex
  // and do not move this round (they were just born there).
  arena_->agent_marks.advance();
  for (Agent a = 0; a < count; ++a) {
    if (arena_->agent_alive.get(a) == 0) continue;
    if (options_.churn > 0.0 && rng_.chance(options_.churn)) {
      respawn(a);
      arena_->agent_marks.insert(a);
    }
  }

  // Movement.
  for (Agent a = 0; a < count; ++a) {
    if (arena_->agent_alive.get(a) == 0) continue;
    if (arena_->agent_marks.contains(a)) continue;
    agents_.set_position(
        a, step_from(*graph_, agents_.position(a), rng_, Laziness::none));
  }

  // Phase A: agents informed before this round inform their vertex
  // (stifled agents and quarantined vertices excepted).
  for (Agent a = 0; a < count; ++a) {
    if (arena_->agent_alive.get(a) == 0 ||
        arena_->agent_inform_round.get(a) >= round_) {
      continue;
    }
    const Vertex v = agents_.position(a);
    if (arena_->vertex_inform_round.touched(v)) continue;
    if constexpr (kGeneral) {
      if (!model_.can_transmit<Mode>(arena_->agent_inform_round.get(a), v,
                                     round_) ||
          !model_.attempt<Mode>(v, v)) {
        continue;
      }
    }
    arena_->vertex_inform_round.set(v, static_cast<std::uint32_t>(round_));
    ++informed_vertex_count_;
    last_inform_round_ = round_;
  }

  // Phase B: uninformed agents learn from informed vertices (unless the
  // vertex has stifled or is quarantined).
  for (Agent a = 0; a < count; ++a) {
    if (arena_->agent_alive.get(a) == 0 ||
        arena_->agent_inform_round.get(a) != kNeverInformed) {
      continue;
    }
    const Vertex v = agents_.position(a);
    if (!arena_->vertex_inform_round.touched(v)) continue;
    if constexpr (kGeneral) {
      if (!model_.can_transmit<Mode>(arena_->vertex_inform_round.get(v), v,
                                     round_) ||
          !model_.attempt<Mode>(v, v)) {
        continue;
      }
    }
    arena_->agent_inform_round.set(a, static_cast<std::uint32_t>(round_));
    ++informed_agent_count_;
    last_inform_round_ = round_;
  }
}

RoundProgress DynamicVisitExchangeProcess::progress() const {
  return {.informed = informed_vertex_count_,
          .target = target_,
          .last_inform = last_inform_round_};
}

RunResult DynamicVisitExchangeProcess::run() {
  return trial_.run(*this, model_, *arena_);
}

RunResult run_dynamic_visit_exchange(const Graph& g, Vertex source,
                                     std::uint64_t seed,
                                     DynamicAgentOptions options,
                                     TrialArena* arena) {
  return DynamicVisitExchangeProcess(g, source, seed, options, arena).run();
}

// ---- Scenario registry entry ------------------------------------------

namespace {

void dynamic_agent_entry_format(const ProtocolOptions& options,
                                const ProtocolOptions& defaults,
                                spec_text::KeyValWriter& out) {
  const auto& opt = std::get<DynamicAgentOptions>(options);
  const auto& def = std::get<DynamicAgentOptions>(defaults);
  if (opt.churn != def.churn) out.add("churn", opt.churn);
  if (opt.loss_round != def.loss_round) {
    out.add("loss_round", static_cast<std::uint64_t>(opt.loss_round));
  }
  if (opt.loss_fraction != def.loss_fraction) {
    out.add("loss_fraction", opt.loss_fraction);
  }
  // Mirror of the set hook: the key it rejects is never emitted.
  WalkOptions walk = opt.walk;
  walk.lazy = def.walk.lazy;
  format_walk_options(walk, def.walk, out);
}

bool dynamic_agent_entry_set(ProtocolOptions& options, std::string_view key,
                             std::string_view value) {
  auto& opt = std::get<DynamicAgentOptions>(options);
  if (key == "churn") {
    const auto v = spec_text::parse_double(value);
    if (!v || !(*v >= 0.0 && *v < 1.0)) return false;  // NaN-proof
    opt.churn = *v;
    return true;
  }
  if (key == "loss_round") {
    const auto v = spec_text::parse_u64(value);
    if (!v) return false;
    opt.loss_round = *v;
    return true;
  }
  if (key == "loss_fraction") {
    const auto v = spec_text::parse_double(value);
    if (!v || !(*v >= 0.0 && *v <= 1.0)) return false;  // NaN-proof
    opt.loss_fraction = *v;
    return true;
  }
  // Movement is never lazy, so this walk key would parse, round-trip and
  // change nothing.
  if (key == "lazy") return false;
  return set_walk_option(opt.walk, key, value);
}

}  // namespace

void register_dynamic_agent_simulator(SimulatorRegistry& registry) {
  add_round_simulator<DynamicVisitExchangeProcess, DynamicAgentOptions>(
      registry,
      {.id = Protocol::dynamic_agent,
       .name = "dynamic-agent",
       .summary =
           "visit-exchange with agent churn, respawn, and one-shot bulk loss",
       .defaults = DynamicAgentOptions{},
       .format_options = dynamic_agent_entry_format,
       .set_option = dynamic_agent_entry_set});
}

}  // namespace rumor
