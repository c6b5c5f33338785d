// HYBRID: push-pull and visit-exchange running on one shared
// informed-vertex state (paper §1 suggests agent-based dissemination "in
// combination with push-pull" as a best-of-both protocol; experiment E12).
//
// A round runs the two protocols' own parts in this order: (1) all agents
// take a walk step; (2) visit-exchange's agent-inform phase: agents
// informed in a previous round inform the vertices they stand on; (3)
// push-pull's round (PushPullRound), exchanges judged on
// informed-before-round state, so a vertex an agent informed in (2)
// makes its first call next round; (4) visit-exchange's agent-catch
// phase: agents standing on an informed vertex (informed in any round up
// to this one) become informed. Each round thus costs one call per useful
// vertex plus one step per agent, the per-round budget of running the two
// protocols side by side.
//
// The sharded engine runs the same four steps on the shard plane. Only
// its agent-inform pass is hybrid's own: an ordered merge in agent-id
// order rather than visit-exchange's claims, because the order in which
// (2) informs vertices orders the caller and puller lists and so keys the
// push and pull slots of (3).
//
// All O(n + |A|) scratch state lives in a TrialArena — lent by the trial
// runner for allocation-free repeated trials, or privately owned when
// constructed without one. Laziness goes through resolve_laziness, so
// LazyMode::auto_bipartite enables lazy walks on bipartite graphs exactly
// as it does for the pure agent protocols.
#pragma once

#include <cstdint>

#include "core/push_pull.hpp"
#include "core/visit_exchange.hpp"
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
  // calls_ and agent_side_ point at model_ and agents_, so a process
  // stays where it was built.
  HybridProcess(const HybridProcess&) = delete;
  HybridProcess& operator=(const HybridProcess&) = delete;

  void step();

  [[nodiscard]] bool done() const {
    return calls_.informed_count() == graph_->num_vertices();
  }
  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] std::uint32_t informed_vertex_count() const {
    return calls_.informed_count();
  }
  [[nodiscard]] bool vertex_informed(Vertex v) const {
    return arena_->vertex_inform_round.touched(v);
  }
  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] Laziness laziness() const { return laziness_; }

  [[nodiscard]] RunResult run();

 private:
  template <class Mode>
  void step_impl();
  template <class Mode>
  void step_sharded();
  friend class RoundTrial;
  [[nodiscard]] RoundProgress progress() const;

  const Graph* graph_;
  Rng rng_;
  WalkOptions options_;
  TransmissionModel model_;
  Laziness laziness_;
  RoundTrial trial_;
  Round round_ = 0;
  Round last_agent_inform_round_ = 0;
  // Frontier-sharded round engine (core/sharding): fixed at construction,
  // before the agents are placed (sharded trials place from the plane).
  bool sharded_ = false;
  std::uint32_t shard_width_ = 1;
  std::uint64_t seed_ = 0;  // ShardPlane key seed (the trial seed)
  ArenaHandle arena_;
  AgentSystem agents_;
  PushPullRound calls_;
  VisitExchangeAgents agent_side_;
};

[[nodiscard]] RunResult run_hybrid(const Graph& g, Vertex source,
                                   std::uint64_t seed,
                                   WalkOptions options = {},
                                   TrialArena* arena = nullptr);

class SimulatorRegistry;
// Registers the hybrid simulator (spec name "hybrid").
void register_hybrid_simulator(SimulatorRegistry& registry);

}  // namespace rumor
