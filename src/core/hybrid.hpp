// HYBRID: push-pull and visit-exchange running on one shared
// informed-vertex state (paper §1 suggests agent-based dissemination "in
// combination with push-pull" as a best-of-both protocol; experiment E12).
//
// Round structure: (1) all agents step; (2) agents informed in a previous
// round inform their vertices; (3) every vertex performs its push-pull call,
// exchanges judged on informed-before-round state; (4) agents standing on an
// informed vertex (any round <= current) become informed. Hence each round
// costs one call per useful vertex plus one step per agent — the same
// per-round budget as running the two protocols side by side.
//
// All O(n + |A|) scratch state lives in a TrialArena — lent by the trial
// runner for allocation-free repeated trials, or privately owned when
// constructed without one. Laziness goes through resolve_laziness, so
// LazyMode::auto_bipartite enables lazy walks on bipartite graphs exactly
// as it does for the pure agent protocols.
#pragma once

#include <cstdint>
#include <memory>

#include "core/walk_options.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"
#include "support/trial_arena.hpp"
#include "walk/agents.hpp"

namespace rumor {

class HybridProcess {
 public:
  HybridProcess(const Graph& g, Vertex source, std::uint64_t seed,
                WalkOptions options = {}, TrialArena* arena = nullptr);

  void step();

  [[nodiscard]] bool done() const {
    return informed_vertex_count_ == graph_->num_vertices();
  }
  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] std::uint32_t informed_vertex_count() const {
    return informed_vertex_count_;
  }
  [[nodiscard]] bool vertex_informed(Vertex v) const {
    return arena_->vertex_inform_round.touched(v);
  }
  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] Laziness laziness() const { return laziness_; }

  [[nodiscard]] RunResult run();

 private:
  void inform_vertex(Vertex v);
  void inform_agent_at(std::size_t order_index);
  template <class Mode>
  void step_impl();
  template <class Mode, class Access>
  void step_sharded(const Access& acc);
  void activate_blocking();
  [[nodiscard]] bool halted() const;
  [[nodiscard]] bool informed_before_this_round(Vertex v) const {
    const std::uint32_t r = arena_->vertex_inform_round.get(v);
    return r != kNeverInformed && r < round_;
  }

  const Graph* graph_;
  Rng rng_;
  WalkOptions options_;
  TransmissionModel model_;
  Laziness laziness_;
  Round round_ = 0;
  Round cutoff_;
  std::uint32_t target_ = 0;  // blocking containment target (vertices)
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
  std::uint32_t informed_vertex_count_ = 0;
  std::size_t informed_agent_count_ = 0;
};

[[nodiscard]] RunResult run_hybrid(const Graph& g, Vertex source,
                                   std::uint64_t seed,
                                   WalkOptions options = {},
                                   TrialArena* arena = nullptr);

class SimulatorRegistry;
// Registers the hybrid simulator (spec name "hybrid").
void register_hybrid_simulator(SimulatorRegistry& registry);

}  // namespace rumor
