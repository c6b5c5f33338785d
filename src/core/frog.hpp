// The frog model (related work, §2: Alves et al. '02, Popov '03,
// Hermon '18): one sleeping agent per vertex ("frog"); the source's frog is
// awake and informed. Awake frogs perform independent random walks; when an
// awake frog visits a vertex, all frogs sleeping there wake up (and are
// informed) and start walking in the next round.
//
// This is the natural "activation spreading" counterpart of the paper's
// protocols: unlike visit-exchange the walker population grows with the
// informed set, so early rounds are cheap and the process self-accelerates.
// Included for the related-work comparison (examples/scenarios/frog.scn);
// the broadcast time is the round when the last frog wakes (equivalently,
// when every vertex has been visited by an awake frog).
//
// Scratch state (positions, visit rounds, the awake-prefix permutation)
// lives in a TrialArena — lent for allocation-free repeated trials, or
// privately owned when constructed without one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/protocol.hpp"
#include "core/transmission.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"
#include "support/trial_arena.hpp"
#include "walk/agents.hpp"

namespace rumor {

struct FrogOptions {
  std::uint32_t frogs_per_vertex = 1;
  Laziness laziness = Laziness::none;
  Round max_rounds = 0;  // 0 = default_round_cutoff(n)
  // Contact rule: a visit wakes the vertex's sleepers with the model's
  // receive probability; stifled frogs keep walking but wake nobody.
  TransmissionOptions transmission;
  TraceOptions trace;

  friend bool operator==(const FrogOptions&, const FrogOptions&) = default;
};

class SimulatorRegistry;
// Registers the frog simulator (spec name "frog").
void register_frog_simulator(SimulatorRegistry& registry);

class FrogProcess {
 public:
  FrogProcess(const Graph& g, Vertex source, std::uint64_t seed,
              FrogOptions options = {}, TrialArena* arena = nullptr);

  void step();

  [[nodiscard]] bool done() const { return awake_count_ == frog_count_; }
  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] std::size_t awake_count() const { return awake_count_; }
  [[nodiscard]] std::size_t frog_count() const { return frog_count_; }
  [[nodiscard]] bool vertex_visited(Vertex v) const {
    return arena_->vertex_inform_round.touched(v);
  }

  [[nodiscard]] RunResult run();

 private:
  void wake_at(Vertex v);
  template <class Mode>
  void step_impl();
  void activate_blocking();
  [[nodiscard]] bool halted() const;
  // A frog's wake round is its home vertex's first-visit round.
  [[nodiscard]] std::uint32_t wake_round(std::uint32_t f) const {
    return arena_->vertex_inform_round.get(f / options_.frogs_per_vertex);
  }

  const Graph* graph_;
  Rng rng_;
  FrogOptions options_;
  TransmissionModel model_;
  Round round_ = 0;
  Round cutoff_;
  std::size_t target_awake_ = 0;  // blocking containment target (frogs)
  Round last_inform_round_ = 0;
  std::unique_ptr<TrialArena> owned_arena_;
  TrialArena* arena_;
  // Frog f sleeps at vertex f / frogs_per_vertex until woken; positions use
  // the arena's reusable agent-position buffer, the first-visit rounds its
  // per-vertex EpochArray, and the awake-prefix partition its
  // identity-default order arrays.
  std::vector<Vertex>* positions_;
  AgentOrderView order_;
  std::size_t frog_count_ = 0;
  std::size_t awake_count_ = 0;
};

[[nodiscard]] RunResult run_frog(const Graph& g, Vertex source,
                                 std::uint64_t seed, FrogOptions options = {},
                                 TrialArena* arena = nullptr);

}  // namespace rumor
