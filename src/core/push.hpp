// PUSH rumor spreading (paper §3).
//
// Round 0: the source is informed. In each round t >= 1, every vertex
// informed in a previous round samples a uniform random neighbor and informs
// it. T_push = rounds until all vertices informed.
//
// Implementation note — saturation retirement: a vertex whose entire
// neighborhood is informed can never change the process again; its future
// calls are skipped. The skipped calls are independent uniform samples whose
// outcomes cannot alter the informed set, so the simulated process law is
// exactly that of the definition (differentially tested against
// reference_push). This turns e.g. the star from Θ(n²log n) simulation work
// into Θ(n log n).
//
// Scratch state (inform rounds, neighbor counters, the active list) lives
// in a TrialArena: epoch-stamped members make per-trial reset O(1) instead
// of O(n + m), and a runner-lent arena makes repeated trials allocation
// free.
#pragma once

#include <cstdint>
#include <memory>

#include "core/protocol.hpp"
#include "core/transmission.hpp"
#include "support/rng.hpp"
#include "support/trial_arena.hpp"

namespace rumor {

struct PushOptions {
  Round max_rounds = 0;  // 0 = default_round_cutoff(n)
  // Frontier-sharded round engine (core/sharding): 0 = serial legacy,
  // kShardsAuto = on for huge graphs, N >= 1 = on with N partitions. The
  // sharded trajectory depends only on whether the engine is ON, never on
  // the partition count. Incompatible with trace.edge_traffic.
  std::uint32_t shards = 0;
  // Contact rule: success probabilities + interventions (core/transmission).
  // Independent per-call message loss with probability q is tp = 1 - q.
  TransmissionOptions transmission;
  TraceOptions trace;

  friend bool operator==(const PushOptions&, const PushOptions&) = default;
};

class SimulatorRegistry;
// Registers the PUSH simulator (spec name "push") with the scenario
// registry; called once by SimulatorRegistry::instance().
void register_push_simulator(SimulatorRegistry& registry);

class PushProcess {
 public:
  PushProcess(const Graph& g, Vertex source, std::uint64_t seed,
              PushOptions options = {}, TrialArena* arena = nullptr);

  // Executes one round.
  void step();

  [[nodiscard]] bool done() const {
    return informed_count_ == graph_->num_vertices();
  }
  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] std::uint32_t informed_count() const {
    return informed_count_;
  }
  [[nodiscard]] bool vertex_informed(Vertex v) const {
    return arena_->vertex_inform_round.touched(v);
  }
  [[nodiscard]] std::uint32_t vertex_inform_round(Vertex v) const {
    return arena_->vertex_inform_round.get(v);
  }
  [[nodiscard]] const Graph& graph() const { return *graph_; }

  // Steps until done or the cutoff; fills a RunResult.
  [[nodiscard]] RunResult run();

 private:
  void inform(Vertex v);
  template <class Mode>
  void step_impl();
  // Frontier-sharded round (sharded_ == true): a parallel survivor filter
  // and a parallel caller phase — both reading round-start state only,
  // each slot drawing from its own addressable chain — bracketing a serial
  // shard-major merge that performs the informs. See docs/perf.md for the
  // determinism contract.
  template <class Mode, class Access>
  void step_sharded(const Access& acc);
  // Geometric skip-sampling round (sample_mode == skip_uniform, untraced):
  // instead of one Bernoulli(p) coin per caller per round, each caller
  // sits in a calendar queue keyed by the round of its next *successful*
  // call, so a round costs O(successes), not O(callers).
  // Templated on the graph access policy (CsrAccess/ImplicitAccess, picked
  // once per step by with_graph_access) so the event loop runs raw CSR
  // loads or closed-form arithmetic with no per-event backend branch.
  template <class Access>
  void step_skip(const Access& acc);
  void schedule(Vertex v, std::uint64_t wake);
  // Inserts v into the calendar (ring slot array, spill chain, or far
  // chain) without touching the pending count; maturation re-links through
  // this, schedule() adds the accounting.
  void link(Vertex v, std::uint64_t wake);
  void activate_blocking();
  // True when the run loop must stop before the cutoff: completion,
  // blocking containment, or stifling extinction.
  [[nodiscard]] bool halted() const;

  const Graph* graph_;
  Rng rng_;
  PushOptions options_;
  TransmissionModel model_;
  Round round_ = 0;
  Round cutoff_;
  std::uint32_t informed_count_ = 0;
  // Containment target under blocking: vertices that can ever be informed.
  std::uint32_t target_;
  Round last_inform_round_ = 0;
  bool skip_ = false;          // calendar path active this trial
  bool sharded_ = false;       // frontier-sharded engine active this trial
  std::uint32_t shard_width_ = 1;  // execution-only; never affects draws
  std::uint64_t seed_ = 0;         // trial seed: keys the shard draw plane
  std::uint64_t pending_ = 0;  // wake events outstanding (ring + far)
  std::unique_ptr<TrialArena> owned_arena_;
  TrialArena* arena_;
};

// One-call convenience.
[[nodiscard]] RunResult run_push(const Graph& g, Vertex source,
                                 std::uint64_t seed, PushOptions options = {});

}  // namespace rumor
