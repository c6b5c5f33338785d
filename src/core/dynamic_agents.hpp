// Dynamic-agent visit-exchange: the paper's §9 fault-tolerance sketch.
//
// "...the protocols could tolerate some number of lost agents, if a dynamic
//  set of agents were used, where agents age with time and die, while new
//  agents are born at a proportional rate."
//
// Model: each round, every agent independently dies with probability
// `churn`; a replacement is immediately born, uninformed, at a vertex drawn
// from the stationary distribution (population stays |A|, which matches the
// birth-rate-proportional-to-death-rate regime). A one-shot bulk loss
// (fraction `loss_fraction` killed without replacement at round
// `loss_round`) models a correlated failure; lost slots stay dead.
// Broadcast semantics are visit-exchange's (vertices store the rumor, so
// agent churn delays but does not destroy progress).
//
// Requires a graph with at least one edge: the degree-weighted stationary
// distribution that places and respawns agents is degenerate (all-zero
// weights) on an edgeless graph. Scratch state lives in a TrialArena for
// allocation-free repeated trials.
#pragma once

#include <cstdint>
#include <memory>

#include "core/walk_options.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"
#include "support/trial_arena.hpp"
#include "walk/agents.hpp"

namespace rumor {

class AliasSampler;

struct DynamicAgentOptions {
  WalkOptions walk;
  double churn = 0.0;  // per-agent per-round death+rebirth probability
  // Optional one-shot correlated failure.
  Round loss_round = kNoRoundYet;
  double loss_fraction = 0.0;

  friend bool operator==(const DynamicAgentOptions&,
                         const DynamicAgentOptions&) = default;
};

class SimulatorRegistry;
// Registers the dynamic-agent simulator (spec name "dynamic-agent").
void register_dynamic_agent_simulator(SimulatorRegistry& registry);

class DynamicVisitExchangeProcess {
 public:
  DynamicVisitExchangeProcess(const Graph& g, Vertex source,
                              std::uint64_t seed,
                              DynamicAgentOptions options = {},
                              TrialArena* arena = nullptr);

  void step();

  [[nodiscard]] bool done() const {
    return informed_vertex_count_ == graph_->num_vertices();
  }
  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] std::uint32_t informed_vertex_count() const {
    return informed_vertex_count_;
  }
  [[nodiscard]] std::size_t alive_agent_count() const { return alive_count_; }
  [[nodiscard]] std::size_t informed_agent_count() const {
    return informed_agent_count_;
  }
  [[nodiscard]] const Graph& graph() const { return *graph_; }

  [[nodiscard]] RunResult run();

 private:
  void respawn(Agent a);
  void kill(Agent a);
  template <class Mode>
  void step_impl();
  void activate_blocking();
  friend class RoundTrial;
  [[nodiscard]] RoundProgress progress() const;

  const Graph* graph_;
  Rng rng_;
  DynamicAgentOptions options_;
  TransmissionModel model_;
  RoundTrial trial_;
  Round round_ = 0;
  std::uint32_t target_ = 0;  // blocking containment target (vertices)
  Round last_inform_round_ = 0;
  ArenaHandle arena_;
  AgentSystem agents_;
  // Respawn sampler: the arena-cached stationary alias table (keepalive
  // owns it when no arena was lent).
  std::shared_ptr<AliasSampler> sampler_keepalive_;
  const AliasSampler* stationary_;
  std::uint32_t informed_vertex_count_ = 0;
  std::size_t informed_agent_count_ = 0;  // informed AND alive
  std::size_t alive_count_ = 0;
  // Per-agent inform round (kNeverInformed when uninformed) and liveness
  // live in the arena ("informed before round t" is inform_round < t, which
  // is what the churn logic resets); born-this-round marks use the arena's
  // agent StampSet, advanced once per round.
};

[[nodiscard]] RunResult run_dynamic_visit_exchange(
    const Graph& g, Vertex source, std::uint64_t seed,
    DynamicAgentOptions options = {}, TrialArena* arena = nullptr);

}  // namespace rumor
