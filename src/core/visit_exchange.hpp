// VISIT-EXCHANGE (paper §3).
//
// A set A of agents performs independent random walks from the stationary
// distribution. Round 0: the source vertex s is informed, as is every agent
// standing on s. Each round: all agents step; an agent informed in a
// previous round informs the vertex it lands on; an agent standing on a
// vertex informed in this or any earlier round becomes informed.
// T_visitx = rounds until all vertices are informed (all agents follow
// within the same round — both counts are recorded).
//
// Cost is Θ(|A|) per round via the batched walk kernel. Agents iterate in
// ascending id order, which is the canonical total order the paper's
// Section 5 coupling assumes. All O(n + |A|) scratch state lives in a
// TrialArena — lent by the trial runner for allocation-free repeated
// trials, or privately owned when constructed without one.
#pragma once

#include <cstdint>

#include "core/sharding.hpp"
#include "core/walk_options.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"
#include "support/trial_arena.hpp"
#include "walk/agents.hpp"

namespace rumor {

// Visit-exchange's agent side, shared with HybridProcess: the agents'
// inform rounds and the agent phases of a round. The serial engine keeps
// the agents in an informed-prefix partition of the arena's agent order
// ([0, informed()) are the informed agents), so each phase visits only
// the agents it can change; the sharded engine iterates agents by id.
class VisitExchangeAgents {
 public:
  // Resets the agents' inform rounds and informs, at round 0, every agent
  // standing on `source`: by agent id on `width` ranges when sharded, else
  // serially, starting the partition.
  VisitExchangeAgents(TrialArena& arena, const AgentSystem& agents,
                      Vertex source, bool sharded, std::uint32_t width);

  // Serial phase A: every agent informed in an earlier round informs the
  // vertex it stands on through inform_vertex(v), unless that vertex is
  // informed already. Stifled agents and quarantined vertices are
  // excepted, and the success draw fires only for state-changing
  // deliveries.
  template <class Mode, class InformVertex>
  void inform_vertices(TransmissionModel& model, Round round,
                       InformVertex&& inform_vertex) const {
    const auto& informed = arena_->vertex_inform_round;
    const std::size_t end = informed_;
    for (std::size_t idx = 0; idx < end; ++idx) {
      const Agent a = order_.at(idx);
      const Vertex v = agents_->position(a);
      if (informed.touched(v)) continue;
      if constexpr (std::is_same_v<Mode, transmission::General>) {
        if (!model.can_transmit<Mode>(arena_->agent_inform_round.get(a), v,
                                      round) ||
            !model.attempt<Mode>(v, v)) {
          continue;
        }
      }
      inform_vertex(v);
    }
  }

  // Serial phase B: every uninformed agent standing on an informed vertex
  // (informed in this round or earlier) becomes informed, unless the
  // vertex has stifled or is quarantined. Returns how many were informed.
  template <class Mode>
  std::size_t catch_agents(TransmissionModel& model, Round round) {
    const auto& informed = arena_->vertex_inform_round;
    const std::size_t before = informed_;
    const std::size_t count = agents_->count();
    for (std::size_t idx = before; idx < count; ++idx) {
      const Agent a = order_.at(idx);
      const Vertex v = agents_->position(a);
      if (!informed.touched(v)) continue;
      if constexpr (std::is_same_v<Mode, transmission::General>) {
        if (!model.can_transmit<Mode>(informed.get(v), v, round) ||
            !model.attempt<Mode>(v, v)) {
          continue;
        }
      }
      inform_agent_at(idx, round);
    }
    return informed_ - before;
  }

  // Phase B on the sharded engine: one pass over agent ids on `width`
  // ranges (catch_agents_sharded). Returns how many were informed.
  template <class Mode>
  std::size_t catch_agents(const TransmissionModel& model,
                           const ShardPlane& plane, Round round,
                           std::uint32_t width) {
    const std::size_t caught = catch_agents_sharded<Mode>(
        *arena_, model, agents_->positions(), plane, round, width);
    informed_ += caught;
    return caught;
  }

  [[nodiscard]] std::size_t informed() const { return informed_; }

 private:
  void inform_agent_at(std::size_t order_index, Round round);

  TrialArena* arena_;
  const AgentSystem* agents_;
  AgentOrderView order_;  // serial engine only
  std::size_t informed_ = 0;
};

class VisitExchangeProcess {
 public:
  VisitExchangeProcess(const Graph& g, Vertex source, std::uint64_t seed,
                       WalkOptions options = {}, TrialArena* arena = nullptr);
  // agent_side_ points at agents_, so a process stays where it was built.
  VisitExchangeProcess(const VisitExchangeProcess&) = delete;
  VisitExchangeProcess& operator=(const VisitExchangeProcess&) = delete;

  void step();

  [[nodiscard]] bool done() const {
    return informed_vertex_count_ == graph_->num_vertices();
  }
  [[nodiscard]] bool all_agents_informed() const {
    return agent_side_.informed() == agents_.count();
  }
  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] std::uint32_t informed_vertex_count() const {
    return informed_vertex_count_;
  }
  [[nodiscard]] std::size_t informed_agent_count() const {
    return agent_side_.informed();
  }
  [[nodiscard]] bool vertex_informed(Vertex v) const {
    return arena_->vertex_inform_round.touched(v);
  }
  [[nodiscard]] std::uint32_t vertex_inform_round(Vertex v) const {
    return arena_->vertex_inform_round.get(v);
  }
  [[nodiscard]] bool agent_informed(Agent a) const {
    return arena_->agent_inform_round.touched(a);
  }
  [[nodiscard]] const AgentSystem& agents() const { return agents_; }
  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] Laziness laziness() const { return laziness_; }

  // Runs until all vertices informed (or cutoff). result.agent_rounds is
  // the round when the last agent was informed.
  [[nodiscard]] RunResult run();

 private:
  void inform_vertex(Vertex v);
  template <class Mode>
  void step_impl();
  // Frontier-sharded round (sharded_ == true): two parallel passes over
  // agent ids (per-agent addressable draws) that write in place — the
  // sharded walk kernel and phase A range by range, vertex informs as
  // atomic claims, then phase B, agent informs by the agent's own slot.
  // See docs/perf.md for the determinism contract.
  template <class Mode>
  void step_sharded();
  void activate_blocking();
  friend class RoundTrial;
  [[nodiscard]] RoundProgress progress() const;

  const Graph* graph_;
  Rng rng_;
  WalkOptions options_;
  TransmissionModel model_;
  Laziness laziness_;
  RoundTrial trial_;
  Round round_ = 0;
  std::uint32_t target_ = 0;  // blocking containment target (vertices)
  Round last_inform_round_ = 0;
  bool sharded_ = false;           // frontier-sharded engine this trial
  std::uint32_t shard_width_ = 1;  // execution-only; never affects draws
  std::uint64_t seed_ = 0;         // trial seed: keys the shard draw plane
  // Scratch state: the bit-stamped inform rounds (and, for the serial
  // engine, the agent-order permutation) live here (see TrialArena).
  ArenaHandle arena_;
  AgentSystem agents_;
  VisitExchangeAgents agent_side_;
  std::uint32_t informed_vertex_count_ = 0;
  Round agent_complete_round_ = kNoRoundYet;
};

[[nodiscard]] RunResult run_visit_exchange(const Graph& g, Vertex source,
                                           std::uint64_t seed,
                                           WalkOptions options = {});

class SimulatorRegistry;
// Registers the VISIT-EXCHANGE simulator (spec name "visit-exchange").
void register_visit_exchange_simulator(SimulatorRegistry& registry);

}  // namespace rumor
