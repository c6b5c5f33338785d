// Shared types for the four dissemination protocols (paper §3).
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
  bool edge_traffic = false;    // per-undirected-edge utilization counters

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
  std::vector<std::uint64_t> edge_traffic;
};

// Default safety cutoff: generous enough for every family in the claim files
// (the slowest case we exercise is push on the star, Θ(n log n)).
[[nodiscard]] inline Round default_round_cutoff(Vertex n) {
  Round bits = 1;
  while ((Vertex{1} << bits) < n && bits < 31) ++bits;
  return 1000 + 400 * static_cast<Round>(n) * bits;
}

}  // namespace rumor
