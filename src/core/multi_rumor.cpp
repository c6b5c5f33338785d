#include "core/multi_rumor.hpp"

#include "core/registry.hpp"
#include "support/spec_text.hpp"

#include <bit>

#include "walk/step_kernel.hpp"

namespace rumor {

namespace {

// Applies newly acquired rumor bits to the per-rumor holder counts and
// completion bookkeeping.
void account_new_bits(RumorMask fresh, std::vector<std::uint32_t>& have_count,
                      std::uint32_t full_count, std::vector<Round>& completion,
                      Round round, std::size_t& remaining) {
  while (fresh != 0) {
    const int r = std::countr_zero(fresh);
    fresh &= fresh - 1;
    if (++have_count[static_cast<std::size_t>(r)] == full_count) {
      completion[static_cast<std::size_t>(r)] = round;
      --remaining;
    }
  }
}

void fill_result(MultiRumorResult& out, std::span<const RumorSpec> rumors,
                 const std::vector<Round>& completion, std::size_t remaining,
                 Round round) {
  out.completed = (remaining == 0);
  out.rounds = round;
  out.completion_round.assign(completion.begin(), completion.end());
  out.latency.resize(rumors.size());
  for (std::size_t r = 0; r < rumors.size(); ++r) {
    out.latency[r] = completion[r] == kNoRoundYet
                         ? kNoRoundYet
                         : completion[r] - rumors[r].release_round;
  }
}

void validate(const Graph& g, std::span<const RumorSpec> rumors) {
  RUMOR_REQUIRE(!rumors.empty());
  RUMOR_REQUIRE(rumors.size() <= kMaxRumors);
  for (const auto& r : rumors) RUMOR_REQUIRE(r.source < g.num_vertices());
}

Round last_release_round(std::span<const RumorSpec> rumors) {
  Round last = 0;
  for (const auto& r : rumors) last = std::max(last, r.release_round);
  return last;
}

}  // namespace

// ---------------------------------------------------------------------------
// push-pull
// ---------------------------------------------------------------------------

MultiRumorPushPull::MultiRumorPushPull(const Graph& g,
                                       std::span<const RumorSpec> rumors,
                                       std::uint64_t seed, Round max_rounds,
                                       TrialArena* arena,
                                       TransmissionOptions transmission)
    : graph_(&g),
      rumors_(rumors),
      rng_(seed),
      cutoff_(max_rounds != 0 ? max_rounds
                              : default_round_cutoff(g.num_vertices())),
      owned_arena_(arena != nullptr ? nullptr : std::make_unique<TrialArena>()),
      arena_(arena != nullptr ? arena : owned_arena_.get()),
      remaining_(rumors.size()) {
  validate(g, rumors_);
  model_.bind(g, transmission, *arena_, seed);
  // Every vertex calls a random neighbor every round (the definition), so
  // the per-round loop may use the unchecked neighbor draw.
  RUMOR_REQUIRE(g.min_degree() > 0);
  arena_->vertex_rumors.assign(g.num_vertices(), 0);
  arena_->vertex_rumors_before.assign(g.num_vertices(), 0);
  arena_->rumor_have_count.assign(rumors_.size(), 0);
  arena_->rumor_completion.assign(rumors_.size(), kNoRoundYet);
  release_due();
}

MultiRumorPushPull::MultiRumorPushPull(const Graph& g,
                                       std::vector<RumorSpec>&& rumors,
                                       std::uint64_t seed, Round max_rounds,
                                       TrialArena* arena,
                                       TransmissionOptions transmission)
    : MultiRumorPushPull(g, std::span<const RumorSpec>(rumors), seed,
                         max_rounds, arena, transmission) {
  // The delegated constructor ran against the caller's vector; adopt it
  // (the move transfers the same heap buffer, so the span stays valid) and
  // re-point the span at the stored copy for clarity.
  rumor_storage_ = std::move(rumors);
  rumors_ = rumor_storage_;
}

void MultiRumorPushPull::release_due() {
  auto& held = arena_->vertex_rumors;
  for (std::size_t r = 0; r < rumors_.size(); ++r) {
    if (rumors_[r].release_round != round_) continue;
    const RumorMask bit = RumorMask{1} << r;
    if ((held[rumors_[r].source] & bit) == 0) {
      held[rumors_[r].source] |= bit;
      account_new_bits(bit, arena_->rumor_have_count, graph_->num_vertices(),
                       arena_->rumor_completion, round_, remaining_);
    }
  }
}

void MultiRumorPushPull::step() {
  if (model_.trivial()) {
    step_impl<transmission::Uniform>();
  } else {
    step_impl<transmission::General>();
  }
}

template <class Mode>
void MultiRumorPushPull::step_impl() {
  ++round_;
  auto& held = arena_->vertex_rumors;
  auto& held_before = arena_->vertex_rumors_before;
  held_before.assign(held.begin(), held.end());
  const Vertex n = graph_->num_vertices();
  for (Vertex u = 0; u < n; ++u) {
    const Vertex v = graph_->random_neighbor_unchecked(u, rng_);
    // Symmetric exchange of everything held before the round; each rumor
    // transfer succeeds independently with the receiver's probability.
    const RumorMask to_v =
        model_.filter_mask<Mode>(held_before[u] & ~held[v], v);
    if (to_v != 0) {
      held[v] |= to_v;
      account_new_bits(to_v, arena_->rumor_have_count, n,
                       arena_->rumor_completion, round_, remaining_);
    }
    const RumorMask to_u =
        model_.filter_mask<Mode>(held_before[v] & ~held[u], u);
    if (to_u != 0) {
      held[u] |= to_u;
      account_new_bits(to_u, arena_->rumor_have_count, n,
                       arena_->rumor_completion, round_, remaining_);
    }
  }
  release_due();
}

void MultiRumorPushPull::run_into(MultiRumorResult& out) {
  // Run at least until every rumor has been released.
  const Round last_release = last_release_round(rumors_);
  while ((!done() || round_ < last_release) && round_ < cutoff_) step();
  fill_result(out, rumors_, arena_->rumor_completion, remaining_, round_);
}

MultiRumorResult MultiRumorPushPull::run() {
  MultiRumorResult result;
  run_into(result);
  return result;
}

// ---------------------------------------------------------------------------
// visit-exchange
// ---------------------------------------------------------------------------

MultiRumorVisitExchange::MultiRumorVisitExchange(
    const Graph& g, std::span<const RumorSpec> rumors, std::uint64_t seed,
    WalkOptions options, TrialArena* arena)
    : graph_(&g),
      rumors_(rumors),
      rng_(seed),
      options_(options),
      laziness_(resolve_laziness(g, options.lazy)),
      cutoff_(options.max_rounds != 0 ? options.max_rounds
                                      : default_round_cutoff(g.num_vertices())),
      owned_arena_(arena != nullptr ? nullptr : std::make_unique<TrialArena>()),
      arena_(arena != nullptr ? arena : owned_arena_.get()),
      agents_(g, resolve_agent_count(g, options), options.placement, rng_,
              resolve_anchor(options, rumors.empty() ? 0 : rumors[0].source),
              arena_),
      remaining_(rumors.size()) {
  validate(g, rumors_);
  model_.bind(g, options_.transmission, *arena_, seed);
  arena_->vertex_rumors.assign(g.num_vertices(), 0);
  arena_->agent_rumors.assign(agents_.count(), 0);
  arena_->agent_rumors_before.assign(agents_.count(), 0);
  arena_->rumor_have_count.assign(rumors_.size(), 0);
  arena_->rumor_completion.assign(rumors_.size(), kNoRoundYet);
  release_due();
}

MultiRumorVisitExchange::MultiRumorVisitExchange(
    const Graph& g, std::vector<RumorSpec>&& rumors, std::uint64_t seed,
    WalkOptions options, TrialArena* arena)
    : MultiRumorVisitExchange(g, std::span<const RumorSpec>(rumors), seed,
                              options, arena) {
  rumor_storage_ = std::move(rumors);
  rumors_ = rumor_storage_;
}

void MultiRumorVisitExchange::release_due() {
  auto& held = arena_->vertex_rumors;
  auto& agent_held = arena_->agent_rumors;
  for (std::size_t r = 0; r < rumors_.size(); ++r) {
    if (rumors_[r].release_round != round_) continue;
    const RumorMask bit = RumorMask{1} << r;
    const Vertex source = rumors_[r].source;
    if ((held[source] & bit) == 0) {
      held[source] |= bit;
      account_new_bits(bit, arena_->rumor_have_count, graph_->num_vertices(),
                       arena_->rumor_completion, round_, remaining_);
    }
    // As in §3 round zero: agents standing on the source learn it at once.
    for (Agent a = 0; a < agents_.count(); ++a) {
      if (agents_.position(a) == source) agent_held[a] |= bit;
    }
  }
}

void MultiRumorVisitExchange::step() {
  if (model_.trivial()) {
    step_impl<transmission::Uniform>();
  } else {
    step_impl<transmission::General>();
  }
}

template <class Mode>
void MultiRumorVisitExchange::step_impl() {
  constexpr bool kGeneral = std::is_same_v<Mode, transmission::General>;
  ++round_;
  const std::size_t count = agents_.count();
  step_walks(*graph_, agents_.positions_mut(), rng_, laziness_);
  auto& held = arena_->vertex_rumors;
  auto& agent_held = arena_->agent_rumors;
  auto& agent_held_before = arena_->agent_rumors_before;
  agent_held_before.assign(agent_held.begin(), agent_held.end());

  // Phase A: rumors the agent held before the round land on its vertex,
  // each transfer drawn independently against the vertex's receive
  // probability.
  const Vertex n = graph_->num_vertices();
  for (Agent a = 0; a < count; ++a) {
    const Vertex v = agents_.position(a);
    const RumorMask fresh =
        model_.filter_mask<Mode>(agent_held_before[a] & ~held[v], v);
    if (fresh != 0) {
      held[v] |= fresh;
      account_new_bits(fresh, arena_->rumor_have_count, n,
                       arena_->rumor_completion, round_, remaining_);
    }
  }
  // Phase B: agents absorb everything their vertex holds (including rumors
  // delivered this round by other agents — §3's same-round pickup); under
  // a heterogeneous model each pickup succeeds with the location's
  // probability.
  for (Agent a = 0; a < count; ++a) {
    const Vertex v = agents_.position(a);
    if constexpr (kGeneral) {
      agent_held[a] |=
          model_.filter_mask<Mode>(held[v] & ~agent_held[a], v);
    } else {
      agent_held[a] |= held[v];
    }
  }
  release_due();
}

void MultiRumorVisitExchange::run_into(MultiRumorResult& out) {
  const Round last_release = last_release_round(rumors_);
  while ((!done() || round_ < last_release) && round_ < cutoff_) step();
  fill_result(out, rumors_, arena_->rumor_completion, remaining_, round_);
}

MultiRumorResult MultiRumorVisitExchange::run() {
  MultiRumorResult result;
  run_into(result);
  return result;
}

// ---- Scenario registry entries ----------------------------------------

namespace {

// Materializes the declarative rumor set: rumor 0 at the scenario source
// (round 0), rumor r >= 1 at a seed-derived uniform vertex, released at
// r * release_interval. Deterministic in (options, source, seed) — the
// trial runner's worker-count independence needs nothing more. The
// thread-local buffers keep steady-state trials allocation-free.
std::span<const RumorSpec> materialize_rumors(const MultiRumorOptions& opt,
                                              const Graph& g, Vertex source,
                                              std::uint64_t seed) {
  static thread_local std::vector<RumorSpec> rumors;
  rumors.clear();
  rumors.push_back({source, 0});
  Rng placement_rng(derive_seed(seed, 0x5EED5EEDULL));
  for (std::uint32_t r = 1; r < opt.rumor_count; ++r) {
    rumors.push_back(
        {static_cast<Vertex>(placement_rng.below(g.num_vertices())),
         static_cast<Round>(r) * opt.release_interval});
  }
  return rumors;
}

TrialResult run_multi_entry(const Graph& g, const ProtocolOptions& options,
                            Vertex source, std::uint64_t seed,
                            TrialArena* arena, bool walks) {
  const auto& opt = std::get<MultiRumorOptions>(options);
  const std::span<const RumorSpec> rumors =
      materialize_rumors(opt, g, source, seed);
  static thread_local MultiRumorResult scratch;
  if (walks) {
    MultiRumorVisitExchange(g, rumors, seed, opt.walk, arena)
        .run_into(scratch);
  } else {
    MultiRumorPushPull(g, rumors, seed, opt.walk.max_rounds, arena,
                       opt.walk.transmission)
        .run_into(scratch);
  }
  TrialResult result;
  result.rounds = static_cast<double>(scratch.rounds);
  result.completed = scratch.completed;
  // "informed" for multi-rumor: how many rumors reached everyone.
  std::uint32_t completed_rumors = 0;
  for (const Round r : scratch.completion_round) {
    if (r != kNoRoundYet) ++completed_rumors;
  }
  result.informed = completed_rumors;
  return result;
}

TrialResult multi_push_pull_entry_run(const Graph& g,
                                      const ProtocolOptions& options,
                                      Vertex source, std::uint64_t seed,
                                      TrialArena* arena) {
  return run_multi_entry(g, options, source, seed, arena, /*walks=*/false);
}

TrialResult multi_visit_exchange_entry_run(const Graph& g,
                                           const ProtocolOptions& options,
                                           Vertex source, std::uint64_t seed,
                                           TrialArena* arena) {
  return run_multi_entry(g, options, source, seed, arena, /*walks=*/true);
}

// Each variant's formatter mirrors its set hook exactly — a formatter that
// emits a key its parser rejects would break the parse(name()) round-trip
// for programmatically built specs.
void multi_entry_format_common(const MultiRumorOptions& opt,
                               const MultiRumorOptions& def,
                               spec_text::KeyValWriter& out) {
  if (opt.rumor_count != def.rumor_count) {
    out.add("rumors", static_cast<std::uint64_t>(opt.rumor_count));
  }
  if (opt.release_interval != def.release_interval) {
    out.add("interval", static_cast<std::uint64_t>(opt.release_interval));
  }
}

void multi_visit_exchange_entry_format(const ProtocolOptions& options,
                                       const ProtocolOptions& defaults,
                                       spec_text::KeyValWriter& out) {
  const auto& opt = std::get<MultiRumorOptions>(options);
  const auto& def = std::get<MultiRumorOptions>(defaults);
  multi_entry_format_common(opt, def, out);
  format_agent_walk_options(opt.walk, def.walk, out);
}

void multi_push_pull_entry_format(const ProtocolOptions& options,
                                  const ProtocolOptions& defaults,
                                  spec_text::KeyValWriter& out) {
  const auto& opt = std::get<MultiRumorOptions>(options);
  const auto& def = std::get<MultiRumorOptions>(defaults);
  multi_entry_format_common(opt, def, out);
  if (opt.walk.max_rounds != def.walk.max_rounds) {
    out.add("max_rounds", static_cast<std::uint64_t>(opt.walk.max_rounds));
  }
  format_transmission_probability_options(opt.walk.transmission,
                                          def.walk.transmission, out);
}

bool multi_entry_set_common(MultiRumorOptions& opt, std::string_view key,
                            std::string_view value, bool* handled) {
  *handled = true;
  if (key == "rumors") {
    const auto v = spec_text::parse_u64(value);
    if (!v || *v == 0 || *v > kMaxRumors) return false;
    opt.rumor_count = static_cast<std::uint32_t>(*v);
    return true;
  }
  if (key == "interval") {
    const auto v = spec_text::parse_u64(value);
    if (!v) return false;
    opt.release_interval = *v;
    return true;
  }
  *handled = false;
  return false;
}

// Neither simulator records traces (the registry trace() hook below is
// null), so the trace keys are rejected here rather than parsed into a
// silently ignored WalkOptions::trace.
bool multi_visit_exchange_entry_set(ProtocolOptions& options,
                                    std::string_view key,
                                    std::string_view value) {
  auto& opt = std::get<MultiRumorOptions>(options);
  bool handled = false;
  const bool ok = multi_entry_set_common(opt, key, value, &handled);
  if (handled) return ok;
  return set_agent_walk_option(opt.walk, key, value);
}

// The push-pull variant has no agent substrate at all: only the cutoff
// survives from the walk block.
bool multi_push_pull_entry_set(ProtocolOptions& options, std::string_view key,
                               std::string_view value) {
  auto& opt = std::get<MultiRumorOptions>(options);
  bool handled = false;
  const bool ok = multi_entry_set_common(opt, key, value, &handled);
  if (handled) return ok;
  if (key == "max_rounds") {
    const auto v = spec_text::parse_u64(value);
    if (!v) return false;
    opt.walk.max_rounds = *v;
    return true;
  }
  return set_transmission_probability_option(opt.walk.transmission, key,
                                             value);
}

TraceOptions* multi_entry_trace(ProtocolOptions&) {
  return nullptr;  // the multi-rumor simulators record no traces
}

}  // namespace

void register_multi_rumor_simulators(SimulatorRegistry& registry) {
  SimulatorEntry push_pull_entry;
  push_pull_entry.id = Protocol::multi_push_pull;
  push_pull_entry.name = "multi-push-pull";
  push_pull_entry.summary =
      "parallel rumors over one shared push-pull call schedule";
  push_pull_entry.defaults = MultiRumorOptions{};
  push_pull_entry.run = multi_push_pull_entry_run;
  push_pull_entry.format_options = multi_push_pull_entry_format;
  push_pull_entry.set_option = multi_push_pull_entry_set;
  push_pull_entry.trace = multi_entry_trace;
  registry.add(std::move(push_pull_entry));

  SimulatorEntry visit_entry;
  visit_entry.id = Protocol::multi_visit_exchange;
  visit_entry.name = "multi-visit-exchange";
  visit_entry.summary =
      "parallel rumors carried by one perpetual agent population";
  visit_entry.defaults = MultiRumorOptions{};
  visit_entry.run = multi_visit_exchange_entry_run;
  visit_entry.format_options = multi_visit_exchange_entry_format;
  visit_entry.set_option = multi_visit_exchange_entry_set;
  visit_entry.trace = multi_entry_trace;
  registry.add(std::move(visit_entry));
}

}  // namespace rumor
