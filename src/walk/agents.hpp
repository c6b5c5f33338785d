// AgentSystem: the population of independent random walkers shared by
// visit-exchange, meet-exchange, and their variants.
//
// The system stores only positions; protocol state (who is informed) lives
// in the protocol simulators, because the two agent-based protocols track
// it differently. Movement is exposed both in bulk (step_all, which runs
// the batched walk kernel) and per agent (set_position + step_from), the
// latter for the coupled simulators of Sections 5/6 that dictate some steps
// from shared randomness.
//
// When constructed with a TrialArena the position array is the arena's
// reusable buffer (zero allocation in steady state) and the serial
// stationary placement's alias sampler is cached in the arena per graph.
// Sharded trials place their agents in one parallel pass instead (see
// ShardedPlacement), with no alias table.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"
#include "support/trial_arena.hpp"

namespace rumor {

class AliasSampler;

using Agent = std::uint32_t;

// Agent ids (and the sharded engine's per-agent draw slots) are 32-bit:
// a system holds at most this many agents. Scenario parsing and
// validation reject larger counts with a message.
inline constexpr std::size_t kMaxAgents = 0xFFFFFFFFu;

// Initial placement of agents (paper §3 uses `stationary`; the remark after
// Lemma 11 covers `one_per_vertex`).
enum class Placement {
  stationary,      // independent draws from π(v) = deg(v)/2|E|
  one_per_vertex,  // agent i starts at vertex i (count must equal n)
  uniform,         // independent uniform vertex draws
  at_vertex,       // all agents start at a designated vertex
};

// Walk laziness. `half` stays put with probability 1/2 each round — the
// paper's fix for bipartite periodicity in meet-exchange.
enum class Laziness { none, half };

// A sharded trial's placement: agent a's start is drawn from its own
// chain of the trial's ShardPlane, SlotDraws(plane(trial_seed, round 0),
// kShardPhasePlace, a), and all agents are placed in one parallel pass of
// `width` ranges on shard_pool() — so positions are a pure function of
// the trial seed at every width. `stationary` draws one of the 2m
// directed edge slots (an undirected edge id plus an endpoint bit) with an
// exact bounded draw and reads Graph::edge_endpoints, which gives exactly
// π(v) = deg(v)/2|E| on every backend without an alias table. width 0
// selects the serial Rng placement.
struct ShardedPlacement {
  std::uint64_t trial_seed = 0;
  std::uint32_t width = 0;
};

// |A| = round(alpha * n), at least 1.
[[nodiscard]] std::size_t agent_count_for(Vertex n, double alpha);

// The alias sampler of the walk's stationary distribution π(v) =
// deg(v)/2|E|, cached in the arena per Graph::uid() so repeated trials on
// one graph build the O(n) table once. With no arena, `keepalive` owns the
// freshly built sampler (callers hold it for the sampler's lifetime).
// Shared by stationary placement and the dynamic-agent respawn path.
[[nodiscard]] const AliasSampler& stationary_sampler(
    const Graph& g, TrialArena* arena,
    std::shared_ptr<AliasSampler>& keepalive);

// One walk step from v: uniform neighbor, or stay put on the lazy coin.
// This is the per-agent primitive the coupling machinery dictates steps
// with; bulk movement goes through the batched kernel (walk/step_kernel.hpp)
// instead.
[[nodiscard]] inline Vertex step_from(const Graph& g, Vertex v, Rng& rng,
                                      Laziness lazy) {
  if (lazy == Laziness::half && rng.coin()) return v;
  return g.random_neighbor(v, rng);
}

class AgentSystem {
 public:
  // `anchor` is the start vertex for Placement::at_vertex (ignored
  // otherwise). Placement::one_per_vertex requires count == g.num_vertices().
  // A non-null `arena` lends the (reused) position buffer and placement
  // cache; the arena must outlive the system. A nonzero `sharded.width`
  // places from the shard plane instead of `rng` (which is then unused).
  AgentSystem(const Graph& g, std::size_t count, Placement placement,
              Rng& rng, Vertex anchor = 0, TrialArena* arena = nullptr,
              ShardedPlacement sharded = {});

  // Positions may live in a borrowed arena buffer; copies would alias it.
  AgentSystem(const AgentSystem&) = delete;
  AgentSystem& operator=(const AgentSystem&) = delete;

  [[nodiscard]] std::size_t count() const { return positions_->size(); }

  [[nodiscard]] Vertex position(Agent a) const {
    RUMOR_CHECK(a < positions_->size());
    return (*positions_)[a];
  }

  void set_position(Agent a, Vertex v) {
    RUMOR_CHECK(a < positions_->size());
    RUMOR_CHECK(v < graph_->num_vertices());
    (*positions_)[a] = v;
  }

  [[nodiscard]] std::span<const Vertex> positions() const {
    return *positions_;
  }

  // Mutable position array for the batched stepping kernel.
  [[nodiscard]] std::span<Vertex> positions_mut() { return *positions_; }

  // Moves every agent one independent step (agent order is the canonical
  // total order used by the paper's couplings: ascending agent id) via the
  // batched walk kernel.
  void step_all(Rng& rng, Laziness lazy);

  // Number of agents currently on each vertex (O(n + |A|)).
  [[nodiscard]] std::vector<std::uint32_t> occupancy() const;

  [[nodiscard]] const Graph& graph() const { return *graph_; }

 private:
  const Graph* graph_;
  std::vector<Vertex> owned_positions_;  // used when no arena is lent
  std::vector<Vertex>* positions_;
};

}  // namespace rumor
