// MEET-EXCHANGE (paper §3).
//
// Only agents store information. Round 0: every agent standing on the
// source s is informed; if there is none, the first agent(s) to visit s in
// a later round become informed, after which s stops informing. Whenever
// two agents meet (same vertex, same round) and exactly one of them was
// informed in a previous round, the other becomes informed.
// T_meetx = rounds until all agents are informed.
//
// On bipartite graphs non-lazy walks may never meet (T = ∞, paper §3);
// the default LazyMode::auto_bipartite reproduces the paper's lazy-walk
// fix, and the non-lazy mode reports completed=false at the cutoff rather
// than hanging.
//
// Stepping runs the batched walk kernel; all O(n + |A|) scratch state lives
// in a TrialArena (lent by the trial runner, or privately owned).
#pragma once

#include <cstdint>
#include <memory>

#include "core/walk_options.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"
#include "support/trial_arena.hpp"
#include "walk/agents.hpp"

namespace rumor {

class MeetExchangeProcess {
 public:
  // Note: unlike the other protocols the default laziness here is
  // auto_bipartite; pass LazyMode::never explicitly to study the
  // non-terminating regime (experiment E10).
  MeetExchangeProcess(const Graph& g, Vertex source, std::uint64_t seed,
                      WalkOptions options = default_options(),
                      TrialArena* arena = nullptr);

  [[nodiscard]] static WalkOptions default_options() {
    WalkOptions options;
    options.lazy = LazyMode::auto_bipartite;
    return options;
  }

  void step();

  [[nodiscard]] bool done() const {
    return informed_agent_count_ == agents_.count();
  }
  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] std::size_t informed_agent_count() const {
    return informed_agent_count_;
  }
  [[nodiscard]] bool agent_informed(Agent a) const {
    return arena_->agent_inform_round.touched(a);
  }
  [[nodiscard]] std::uint32_t agent_inform_round(Agent a) const {
    return arena_->agent_inform_round.get(a);
  }
  // True while the source vertex is still waiting for its first visitor.
  [[nodiscard]] bool source_active() const { return source_active_; }
  [[nodiscard]] const AgentSystem& agents() const { return agents_; }
  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] Laziness laziness() const { return laziness_; }

  [[nodiscard]] RunResult run();

 private:
  void inform_agent_at(std::size_t order_index);
  template <class Mode>
  void step_impl();
  template <class Mode>
  void step_sharded();
  [[nodiscard]] bool halted() const;

  const Graph* graph_;
  Rng rng_;
  WalkOptions options_;
  TransmissionModel model_;
  Laziness laziness_;
  Round round_ = 0;
  Round cutoff_;
  Round last_inform_round_ = 0;
  // Frontier-sharded round engine (core/sharding): fixed at construction,
  // before the agents are placed (sharded trials place from the plane).
  bool sharded_ = false;
  std::uint32_t shard_width_ = 1;
  std::uint64_t seed_ = 0;  // ShardPlane key seed (the trial seed)
  std::unique_ptr<TrialArena> owned_arena_;
  TrialArena* arena_;
  AgentSystem agents_;
  // Serial engine only: identity-default informed-prefix partition over
  // the arena's order arrays ([0, informed_agent_count_) are the informed
  // agents). The sharded engine iterates agents by id instead.
  AgentOrderView order_;
  Vertex source_;
  bool source_active_ = false;
  std::size_t informed_agent_count_ = 0;
};

[[nodiscard]] RunResult run_meet_exchange(
    const Graph& g, Vertex source, std::uint64_t seed,
    WalkOptions options = MeetExchangeProcess::default_options());

class SimulatorRegistry;
// Registers the MEET-EXCHANGE simulator (spec name "meet-exchange").
void register_meet_exchange_simulator(SimulatorRegistry& registry);

}  // namespace rumor
