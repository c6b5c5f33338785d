// Multi-rumor dissemination — the setting that motivates the paper's
// stationary-start assumption (§1):
//
//   "The assumption that agents start from the stationary distribution
//    makes sense in a setting where several pieces of information (or
//    rumors) are generated frequently and distributed in parallel over time
//    by the same set of agents, which execute perpetual independent random
//    walks."
//
// Up to 64 rumors, each with a source vertex and a release round, spread
// over one shared substrate. Exchanges transfer ALL rumors a party holds
// (push-pull "the two nodes exchange all the information they have";
// visit-exchange likewise). Key structural fact, property-tested in
// tests/test_core_multi_rumor.cpp: the marginal process of each rumor is
// exactly the single-rumor protocol started at its release round — rumors
// share bandwidth without interfering — so per-rumor broadcast times match
// the single-rumor distributions.
//
// Rumor masks and per-rumor bookkeeping live in a TrialArena. The primary
// constructors borrow the rumor specs as a span (the caller keeps them
// alive for the simulator's lifetime — the allocation-free trial path); the
// vector&& overloads store a moved-in copy for temporaries.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/walk_options.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"
#include "support/trial_arena.hpp"
#include "walk/agents.hpp"

namespace rumor {

using RumorMask = std::uint64_t;
constexpr std::size_t kMaxRumors = 64;

struct RumorSpec {
  Vertex source = 0;
  Round release_round = 0;  // the round at which the source learns it
};

// Declarative multi-rumor scenario: `rumor_count` rumors on one shared
// substrate, rumor 0 released at the scenario source in round 0 and rumor
// r >= 1 at a seed-derived uniform vertex in round r * release_interval.
// This is the spec-level face of the multi-rumor simulators; callers that
// need explicit per-rumor (source, release) pairs construct the simulator
// classes below directly.
struct MultiRumorOptions {
  // Agent substrate for the visit-exchange variant; the push-pull variant
  // uses only walk.max_rounds (its cutoff) and ignores the agent fields.
  WalkOptions walk;
  std::uint32_t rumor_count = 2;
  Round release_interval = 0;

  friend bool operator==(const MultiRumorOptions&,
                         const MultiRumorOptions&) = default;
};

class SimulatorRegistry;
// Registers both multi-rumor simulators (spec names "multi-push-pull" and
// "multi-visit-exchange").
void register_multi_rumor_simulators(SimulatorRegistry& registry);

struct MultiRumorResult {
  // Per rumor: the absolute round when every vertex (visit-exchange /
  // push-pull) held it, and the latency relative to its release round.
  std::vector<Round> completion_round;
  std::vector<Round> latency;
  bool completed = false;  // all rumors everywhere
  Round rounds = 0;        // final absolute round
};

// Multi-rumor PUSH-PULL: every vertex calls one random neighbor per round;
// the pair unions their rumor sets, each side receiving only rumors the
// other held before the round.
class MultiRumorPushPull {
 public:
  // `transmission` carries the per-rumor transfer probability (only the
  // probability half applies here: the packed rumor masks carry no inform
  // ages, so the intervention keys are rejected at the grammar level).
  MultiRumorPushPull(const Graph& g, std::span<const RumorSpec> rumors,
                     std::uint64_t seed, Round max_rounds = 0,
                     TrialArena* arena = nullptr,
                     TransmissionOptions transmission = {});
  MultiRumorPushPull(const Graph& g, std::vector<RumorSpec>&& rumors,
                     std::uint64_t seed, Round max_rounds = 0,
                     TrialArena* arena = nullptr,
                     TransmissionOptions transmission = {});

  void step();
  [[nodiscard]] bool done() const { return remaining_ == 0; }
  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] RumorMask vertex_rumors(Vertex v) const {
    return arena_->vertex_rumors[v];
  }
  [[nodiscard]] MultiRumorResult run();
  // As run(), but reuses `out`'s buffers (allocation-free once warm).
  void run_into(MultiRumorResult& out);

 private:
  void release_due();
  template <class Mode>
  void step_impl();

  const Graph* graph_;
  std::vector<RumorSpec> rumor_storage_;  // only for the vector&& overload
  std::span<const RumorSpec> rumors_;
  Rng rng_;
  TransmissionModel model_;
  Round round_ = 0;
  Round cutoff_;
  ArenaHandle arena_;
  std::size_t remaining_;
};

// Multi-rumor VISIT-EXCHANGE: agents walk perpetually; a visit unions the
// vertex's and agent's rumor sets under the paper's one-round-delay rules
// (an agent transfers only rumors it held before the round; the vertex
// hands over everything it holds after its own update — matching §3).
class MultiRumorVisitExchange {
 public:
  MultiRumorVisitExchange(const Graph& g, std::span<const RumorSpec> rumors,
                          std::uint64_t seed, WalkOptions options = {},
                          TrialArena* arena = nullptr);
  MultiRumorVisitExchange(const Graph& g, std::vector<RumorSpec>&& rumors,
                          std::uint64_t seed, WalkOptions options = {},
                          TrialArena* arena = nullptr);

  void step();
  [[nodiscard]] bool done() const { return remaining_ == 0; }
  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] RumorMask vertex_rumors(Vertex v) const {
    return arena_->vertex_rumors[v];
  }
  [[nodiscard]] RumorMask agent_rumors(Agent a) const {
    return arena_->agent_rumors[a];
  }
  [[nodiscard]] const AgentSystem& agents() const { return agents_; }
  [[nodiscard]] Laziness laziness() const { return laziness_; }
  [[nodiscard]] MultiRumorResult run();
  // As run(), but reuses `out`'s buffers (allocation-free once warm).
  void run_into(MultiRumorResult& out);

 private:
  void release_due();
  template <class Mode>
  void step_impl();

  const Graph* graph_;
  std::vector<RumorSpec> rumor_storage_;  // only for the vector&& overload
  std::span<const RumorSpec> rumors_;
  Rng rng_;
  WalkOptions options_;
  TransmissionModel model_;
  Laziness laziness_;
  Round round_ = 0;
  Round cutoff_;
  ArenaHandle arena_;
  AgentSystem agents_;
  std::size_t remaining_;
};

}  // namespace rumor
