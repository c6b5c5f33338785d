#include "core/coupling/coupled_walk_protocols.hpp"

#include "graph/properties.hpp"
#include "walk/step_kernel.hpp"

namespace rumor {

CoupledWalkProtocols::CoupledWalkProtocols(const Graph& g, Vertex source,
                                           std::uint64_t seed,
                                           WalkOptions options)
    : graph_(&g),
      rng_(seed),
      options_(options),
      laziness_(resolve_laziness(g, options.lazy)),
      cutoff_(options.max_rounds != 0 ? options.max_rounds
                                      : default_round_cutoff(g.num_vertices())),
      agents_(g, resolve_agent_count(g, options), options.placement, rng_,
              resolve_anchor(options, source)),
      source_(source),
      vertex_inform_round_(g.num_vertices(), kNeverInformed),
      visitx_informed_(agents_.count()),
      meetx_informed_(agents_.count()),
      meetx_informed_before_(agents_.count()),
      meetx_here_(g.num_vertices()),
      visitx_informed_before_(agents_.count()) {
  if (!options.transmission.trivial()) {
    throw CouplingOptionsError(
        "coupled walk protocols require trivial transmission (tp=1, no "
        "stifle/block): the shared-trajectory coupling of Theorem 23 has no "
        "per-protocol success draws to honor a contact rule with");
  }
  RUMOR_REQUIRE(source < g.num_vertices());

  // Round 0 for both protocols: agents standing on the source.
  vertex_inform_round_[source] = 0;
  visitx_informed_vertices_ = 1;
  for (Agent a = 0; a < agents_.count(); ++a) {
    if (agents_.position(a) == source) {
      visitx_informed_.set(a);
      ++visitx_informed_agents_;
      meetx_informed_.set(a);
      ++meetx_informed_count_;
    }
  }
  source_active_ = (meetx_informed_count_ == 0);
  if (visitx_vertices_done()) visitx_vertex_round_ = 0;
  if (visitx_agents_done()) visitx_agent_round_ = 0;
  if (meetx_done()) meetx_round_ = 0;
}

void CoupledWalkProtocols::step() {
  ++round_;
  const std::size_t count = agents_.count();

  // Shared movement: THE coupling — both protocols see these trajectories
  // (one batched kernel pass, so both views consume the same draws).
  step_walks(*graph_, agents_.positions_mut(), rng_, laziness_);

  // Snapshots of "informed before this round".
  visitx_informed_before_ = visitx_informed_;
  meetx_informed_before_ = meetx_informed_;

  // --- visit-exchange phases ---
  for (Agent a = 0; a < count; ++a) {
    if (!visitx_informed_before_.test(a)) continue;
    const Vertex v = agents_.position(a);
    if (vertex_inform_round_[v] == kNeverInformed) {
      vertex_inform_round_[v] = static_cast<std::uint32_t>(round_);
      ++visitx_informed_vertices_;
    }
  }
  for (Agent a = 0; a < count; ++a) {
    if (visitx_informed_.test(a)) continue;
    if (vertex_inform_round_[agents_.position(a)] != kNeverInformed) {
      visitx_informed_.set(a);
      ++visitx_informed_agents_;
    }
  }

  // --- meet-exchange phases ---
  meetx_here_.advance();
  for (Agent a = 0; a < count; ++a) {
    if (meetx_informed_before_.test(a)) {
      meetx_here_.insert(agents_.position(a));
    }
  }
  bool source_met = false;
  for (Agent a = 0; a < count; ++a) {
    if (meetx_informed_.test(a)) continue;
    const Vertex v = agents_.position(a);
    if (meetx_here_.contains(v)) {
      meetx_informed_.set(a);
      ++meetx_informed_count_;
    } else if (source_active_ && v == source_) {
      meetx_informed_.set(a);
      ++meetx_informed_count_;
      source_met = true;
    }
  }
  if (source_met) source_active_ = false;

  if (visitx_vertices_done() && visitx_vertex_round_ == kNoRoundYet) {
    visitx_vertex_round_ = round_;
  }
  if (visitx_agents_done() && visitx_agent_round_ == kNoRoundYet) {
    visitx_agent_round_ = round_;
  }
  if (meetx_done() && meetx_round_ == kNoRoundYet) meetx_round_ = round_;
}

CoupledWalkResult CoupledWalkProtocols::run() {
  bool subset_ok = meetx_subset_of_visitx();
  while ((!meetx_done() || !visitx_vertices_done()) && round_ < cutoff_) {
    step();
    subset_ok = subset_ok && meetx_subset_of_visitx();
  }
  CoupledWalkResult result;
  result.meetx_completed = meetx_done();
  result.visitx_completed = visitx_vertices_done();
  result.meetx_rounds = meetx_round_ != kNoRoundYet ? meetx_round_ : round_;
  result.visitx_agent_rounds =
      visitx_agent_round_ != kNoRoundYet ? visitx_agent_round_ : round_;
  result.visitx_vertex_rounds =
      visitx_vertex_round_ != kNoRoundYet ? visitx_vertex_round_ : round_;
  result.subset_invariant_held = subset_ok;
  return result;
}

CoupledWalkResult run_coupled_walk_protocols(const Graph& g, Vertex source,
                                             std::uint64_t seed,
                                             WalkOptions options) {
  return CoupledWalkProtocols(g, source, seed, options).run();
}

}  // namespace rumor
