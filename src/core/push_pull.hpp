// PUSH-PULL rumor spreading (paper §3, Karp et al. 2000).
//
// Round 0: the source is informed. In each round t >= 1, every vertex
// (informed or not) samples a uniform random neighbor; if exactly one of the
// pair was informed before round t, the other becomes informed.
//
// Implementation note: only two kinds of calls can change the state —
// pushes by informed vertices with an uninformed neighbor, and pulls by
// uninformed vertices adjacent to an informed one. All other calls are
// no-ops by definition, so the simulator iterates exactly those two sets
// (see docs/perf.md "Law-preserving optimizations"; differentially tested
// against reference_push_pull).
//
// Scratch state (inform rounds, neighbor counters, caller/frontier lists)
// lives in a TrialArena for O(1) per-trial reset and allocation-free
// repeated trials.
#pragma once

#include <cstdint>
#include <memory>

#include "core/protocol.hpp"
#include "core/transmission.hpp"
#include "support/rng.hpp"
#include "support/trial_arena.hpp"

namespace rumor {

struct PushPullOptions {
  Round max_rounds = 0;  // 0 = default_round_cutoff(n)
  // Frontier-sharded round engine (core/sharding): 0 = serial legacy,
  // kShardsAuto = on for huge graphs, N >= 1 = on with N partitions.
  // Trajectory depends only on on/off, never on the partition count.
  // Incompatible with trace.edge_traffic (the exact-bandwidth path).
  std::uint32_t shards = 0;
  // Contact rule: success probabilities + interventions (core/transmission).
  // Independent per-call message loss with probability q is tp = 1 - q.
  TransmissionOptions transmission;
  TraceOptions trace;

  friend bool operator==(const PushPullOptions&,
                         const PushPullOptions&) = default;
};

class SimulatorRegistry;
// Registers the PUSH-PULL simulator (spec name "push-pull").
void register_push_pull_simulator(SimulatorRegistry& registry);

class PushPullProcess {
 public:
  PushPullProcess(const Graph& g, Vertex source, std::uint64_t seed,
                  PushPullOptions options = {}, TrialArena* arena = nullptr);

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

  [[nodiscard]] RunResult run();

 private:
  void inform(Vertex v);
  template <class Mode>
  void step_impl();
  // Frontier-sharded round (sharded_ == true; untraced fast path only):
  // parallel filters over callers and pullers, a parallel pusher phase, the
  // serial push merge, then a parallel puller phase reading the post-push
  // state (valid: the push merge result is partition-independent) and the
  // serial pull merge. Each parallel slot draws from its own addressable
  // chain; see docs/perf.md for the determinism contract.
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
  PushPullOptions options_;
  TransmissionModel model_;
  Round round_ = 0;
  Round cutoff_;
  std::uint32_t informed_count_ = 0;
  std::uint32_t target_;  // blocking containment target
  Round last_inform_round_ = 0;
  bool sharded_ = false;           // frontier-sharded engine this trial
  std::uint32_t shard_width_ = 1;  // execution-only; never affects draws
  std::uint64_t seed_ = 0;         // trial seed: keys the shard draw plane
  std::unique_ptr<TrialArena> owned_arena_;
  TrialArena* arena_;
};

[[nodiscard]] RunResult run_push_pull(const Graph& g, Vertex source,
                                      std::uint64_t seed,
                                      PushPullOptions options = {});

}  // namespace rumor
