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

#include "core/protocol.hpp"
#include "core/transmission.hpp"
#include "support/philox.hpp"
#include "support/rng.hpp"
#include "support/trial_arena.hpp"

namespace rumor {

struct PushPullOptions {
  Round max_rounds = 0;  // 0 = default_round_cutoff(n)
  // Frontier-sharded round engine (core/sharding): 0 = serial legacy,
  // kShardsAuto = on for huge graphs, N >= 1 = on with N partitions.
  // Trajectory depends only on on/off, never on the partition count.
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

// Push-pull's round on an informed-vertex state kept in a TrialArena: the
// inform rounds, the caller list (informed vertices that may still change
// the state), the puller list (uninformed vertices with an informed
// neighbour), the informed-neighbour counters behind saturation
// retirement and the ever-in-frontier marks that keep the puller list
// duplicate-free. PushPullProcess runs it alone; HybridProcess runs it
// between visit-exchange's agent passes, where a vertex can enter a round
// already informed in that round (by an agent): it stays a caller but
// makes its first call next round, since the definition lets only
// vertices informed before round t push in round t. In pure push-pull
// every caller was informed in an earlier round, so that guard never
// fires.
class PushPullRound {
 public:
  // Whether the vertices a serial round's pushes add to the frontier also
  // make their pull call in that round. None of their neighbours was
  // informed before the round, so the call cannot succeed: it only draws.
  // PushPullProcess never makes it; HybridProcess's serial engine always
  // has, and keeps making it so its trajectories stay as they were. The
  // sharded round never makes it.
  enum class LatePulls : std::uint8_t { skip, draw };

  // Resets the arena's round state for g: nothing is informed yet.
  PushPullRound(const Graph& g, TransmissionModel& model, TrialArena& arena,
                LatePulls late_pulls = LatePulls::skip);

  // v becomes informed at `round`: it joins the callers, and each of its
  // uninformed neighbours not yet seen joins the pullers.
  void inform(Vertex v, Round round);
  // Blocking activation: quarantined-uninformed vertices count into the
  // neighbour counters, so saturation retirement treats them as
  // permanently unreachable (an empty caller list then means no call can
  // change the state), and they come off the target.
  void activate_blocking();

  // One round on the caller's serial stream. Only the calls that can
  // change the state are made: pushes by callers with an uninformed
  // neighbour, pulls by frontier vertices; all other calls are no-ops by
  // definition. Stifled and quarantined callers retire like saturated ones
  // (all three are permanent), and quarantined pullers drop out the same
  // way.
  void serial(Round round, Rng& rng);
  // The same round on the sharded plane (see push_pull.cpp).
  void sharded(Round round, const ShardPlane& plane, std::uint32_t width);

  [[nodiscard]] std::uint32_t informed_count() const {
    return informed_count_;
  }
  // Vertices that can still be informed: n until blocking activates.
  [[nodiscard]] std::uint32_t target() const { return target_; }
  [[nodiscard]] Round last_inform_round() const { return last_inform_round_; }
  // True when the last round's retirement sweep kept no caller.
  [[nodiscard]] bool no_callers() const { return arena_->active.empty(); }

 private:
  [[nodiscard]] bool informed_before(Vertex v, Round round) const {
    const std::uint32_t r = arena_->vertex_inform_round.get(v);
    return r != kNeverInformed && r < round;
  }
  template <class Mode>
  void serial_impl(Round round, Rng& rng);
  template <class Mode, class Access>
  void sharded_impl(Round round, const Access& acc, const ShardPlane& plane,
                    std::uint32_t width);

  const Graph* graph_;
  TransmissionModel* model_;
  TrialArena* arena_;
  LatePulls late_pulls_;
  std::uint32_t informed_count_ = 0;
  std::uint32_t target_;
  Round last_inform_round_ = 0;
};

class PushPullProcess {
 public:
  PushPullProcess(const Graph& g, Vertex source, std::uint64_t seed,
                  PushPullOptions options = {}, TrialArena* arena = nullptr);
  // calls_ points at model_, so a process stays where it was built.
  PushPullProcess(const PushPullProcess&) = delete;
  PushPullProcess& operator=(const PushPullProcess&) = delete;

  void step();

  [[nodiscard]] bool done() const {
    return calls_.informed_count() == graph_->num_vertices();
  }
  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] std::uint32_t informed_count() const {
    return calls_.informed_count();
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
  friend class RoundTrial;
  [[nodiscard]] RoundProgress progress() const;

  const Graph* graph_;
  Rng rng_;
  PushPullOptions options_;
  TransmissionModel model_;
  RoundTrial trial_;
  Round round_ = 0;
  bool sharded_ = false;           // frontier-sharded engine this trial
  std::uint32_t shard_width_ = 1;  // execution-only; never affects draws
  std::uint64_t seed_ = 0;         // trial seed: keys the shard draw plane
  ArenaHandle arena_;
  PushPullRound calls_;
};

[[nodiscard]] RunResult run_push_pull(const Graph& g, Vertex source,
                                      std::uint64_t seed,
                                      PushPullOptions options = {});

}  // namespace rumor
