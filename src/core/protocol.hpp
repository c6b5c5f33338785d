// Shared types and the shared trial scaffold of the round simulators
// (the paper's four protocols, paper §3, and hybrid, frog and
// dynamic-agent).
//
// Each protocol is a stepwise simulator class (construct → step() until
// done() → inspect) plus a run() convenience that returns a RunResult.
// Stepwise execution is what the coupling machinery and the invariant tests
// hook into; run() is what experiments use.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"
#include "support/trial_arena.hpp"

namespace rumor {

using Round = std::uint64_t;

constexpr std::uint32_t kNeverInformed =
    std::numeric_limits<std::uint32_t>::max();

// Sentinel for "this milestone round has not happened yet".
constexpr Round kNoRoundYet = std::numeric_limits<Round>::max();

// What a simulator records beyond the broadcast time. Everything here is
// off by default; traces cost memory proportional to what they record.
struct TraceOptions {
  bool informed_curve = false;  // per-round count of informed vertices/agents
  bool inform_rounds = false;   // per-vertex (and per-agent) inform rounds

  friend bool operator==(const TraceOptions&, const TraceOptions&) = default;
};

struct RunResult {
  // Broadcast time: rounds until all vertices informed (push, push-pull,
  // visit-exchange) or all agents informed (meet-exchange). Equals the
  // cutoff when completed == false.
  Round rounds = 0;
  bool completed = false;

  // visit-exchange also reports when all agents became informed (the
  // quantity coupled against meet-exchange in Theorem 23).
  Round agent_rounds = 0;

  // Final informed-entity count (vertices, or agents for the agent-counting
  // protocols). Equals n on completed runs; with interventions (stifling,
  // blocking) it measures how far the rumor got before dying out.
  std::uint32_t informed = 0;

  // Populated according to TraceOptions.
  std::vector<std::uint32_t> informed_curve;
  // Per-round stifled-entity counts; populated alongside informed_curve
  // when the transmission model stifles (see derive_stifled_curve).
  std::vector<std::uint32_t> stifled_curve;
  std::vector<std::uint32_t> vertex_inform_round;
  std::vector<std::uint32_t> agent_inform_round;
};

// The per-round stifled-entity counts derivable from an informed curve:
// an entity informed at round q transmits in rounds q+1 .. q+stifle and
// counts as stifled from round q+stifle+1 on, so
// stifled[t] = informed[t - stifle - 1] (0 before that index exists).
// Returns an empty vector when stifle == 0 (nothing ever stifles).
[[nodiscard]] std::vector<std::uint32_t> derive_stifled_curve(
    const std::vector<std::uint32_t>& informed_curve, std::uint32_t stifle);

// Default safety cutoff: generous enough for every family in the claim files
// (the slowest case we exercise is push on the star, Θ(n log n)).
[[nodiscard]] inline Round default_round_cutoff(Vertex n) {
  Round bits = 1;
  while ((Vertex{1} << bits) < n && bits < 31) ++bits;
  return 1000 + 400 * static_cast<Round>(n) * bits;
}

// The cutoff of a run whose options say `max_rounds` (0 = the default).
[[nodiscard]] inline Round round_cutoff(Round max_rounds, Vertex n) {
  return max_rounds != 0 ? max_rounds : default_round_cutoff(n);
}

// What a round simulator states about itself, after construction and after
// each step(): all that RoundTrial reads besides round(), done() and
// step().
struct RoundProgress {
  // Informed entities: vertices, agents (meet-exchange) or awake frogs.
  std::uint64_t informed = 0;
  // Containment target: the entities that can still be informed, which
  // blocking lowers when it activates (meet-exchange has none).
  std::uint64_t target = std::numeric_limits<std::uint64_t>::max();
  // The last round that informed anything: stifling extinction counts
  // from it.
  Round last_inform = 0;
  // Push and push-pull: no caller survived the last round, so no call can
  // change the state again.
  bool no_callers = false;
  // Visit-exchange's all-agents milestone; kNoRoundYet reports the
  // broadcast round as RunResult::agent_rounds.
  Round agent_rounds = kNoRoundYet;
};

// Which per-entity inform rounds TraceOptions::inform_rounds exports.
enum class InformRounds : std::uint8_t { vertices, agents, both };

// The trial scaffold the round simulators share: the cutoff, the halting
// rule, the run loop with its informed-curve recorder, and the RunResult
// fill. A simulator holds one, befriends it, and states what differs in a
// private progress() returning RoundProgress; its step engines stay its
// own. Inline templates on a value type rather than a base class with
// virtual calls: the loop runs once a round, and a serial push round on
// the star costs about 0.03 µs (docs/perf.md, the width-1 gate table).
// `Model` is the simulator's TransmissionModel (core/transmission.hpp
// includes this header).
class RoundTrial {
 public:
  RoundTrial(Round max_rounds, Vertex n, const TraceOptions& trace,
             InformRounds exports)
      : cutoff_(round_cutoff(max_rounds, n)),
        trace_(trace),
        exports_(exports) {}

  // The halting rule. A run stops when it is done or at the cutoff; under
  // interventions also at blocking containment, when no caller is left,
  // and at stifling extinction, since from each of those states no
  // contact can change anything again.
  template <class Model>
  [[nodiscard]] bool halted(Round round, bool done, const Model& model,
                            const RoundProgress& p) const {
    if (done || round >= cutoff_) return true;
    if (model.trivial()) return false;
    return p.informed >= p.target || (round > 0 && p.no_callers) ||
           model.extinct(round, p.last_inform);
  }

  // Steps `process` until halted() and fills its RunResult. The informed
  // curve (arena.curve, reused across trials) gets the state at the call
  // and one entry after each step(), so call run() on a process that has
  // not stepped.
  template <class Process, class Model>
  [[nodiscard]] RunResult run(Process& process, const Model& model,
                              TrialArena& arena) const {
    std::vector<std::uint32_t>& curve = arena.curve;
    const auto record = [&] {
      if (trace_.informed_curve) {
        curve.push_back(
            static_cast<std::uint32_t>(process.progress().informed));
      }
    };
    curve.clear();
    record();
    while (!halted(process.round(), process.done(), model,
                   process.progress())) {
      process.step();
      record();
    }
    const RoundProgress p = process.progress();
    RunResult result;
    result.rounds = process.round();
    result.completed = process.done();
    result.agent_rounds =
        p.agent_rounds != kNoRoundYet ? p.agent_rounds : result.rounds;
    result.informed = static_cast<std::uint32_t>(p.informed);
    if (trace_.informed_curve) {
      result.informed_curve = curve;
      result.stifled_curve =
          derive_stifled_curve(result.informed_curve, model.stifle());
    }
    if (trace_.inform_rounds) {
      if (exports_ != InformRounds::agents) {
        result.vertex_inform_round = arena.vertex_inform_round.to_vector();
      }
      if (exports_ != InformRounds::vertices) {
        result.agent_inform_round = arena.agent_inform_round.to_vector();
      }
    }
    return result;
  }

 private:
  Round cutoff_;
  TraceOptions trace_;
  InformRounds exports_;
};

}  // namespace rumor
