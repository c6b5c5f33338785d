// Options shared by the agent-based protocols (visit-exchange,
// meet-exchange, hybrid, dynamic variants).
#pragma once

#include <cstddef>
#include <string_view>

#include "core/protocol.hpp"
#include "core/transmission.hpp"
#include "walk/agents.hpp"

namespace rumor {

namespace spec_text {
class KeyValWriter;
}  // namespace spec_text

// Walk laziness policy. The paper uses non-lazy walks for visit-exchange
// and lazy walks for meet-exchange "when the graph is bipartite"; the
// auto mode reproduces exactly that rule.
enum class LazyMode {
  never,
  always,
  auto_bipartite,  // lazy iff the graph is bipartite
};

struct WalkOptions {
  // |A| = round(alpha * n) unless agent_count overrides it (nonzero).
  double alpha = 1.0;
  std::size_t agent_count = 0;
  Placement placement = Placement::stationary;
  // Start vertex for Placement::at_vertex; kNoVertex means "the source".
  Vertex placement_anchor = kNoVertex;
  LazyMode lazy = LazyMode::never;
  Round max_rounds = 0;  // 0 = default_round_cutoff(n)
  // Frontier-sharded round engine (core/sharding): 0 = serial legacy,
  // kShardsAuto = on for huge graphs, N >= 1 = on with N partitions.
  // Honored by visit-exchange, meet-exchange, and hybrid (their shared
  // sharded_walk_entry hooks parse the key); the plain walk grammar
  // rejects it, so the remaining walk specs (frog, dynamic-agent,
  // multi-rumor) cannot silently carry a dead option. Incompatible with
  // trace.edge_traffic.
  std::uint32_t shards = 0;
  // Contact rule (success probabilities + interventions); the default is
  // the paper's always-successful homogeneous transmission.
  TransmissionOptions transmission;
  TraceOptions trace;

  friend bool operator==(const WalkOptions&, const WalkOptions&) = default;
};

// Resolves the at_vertex anchor against the broadcast source.
[[nodiscard]] inline Vertex resolve_anchor(const WalkOptions& options,
                                           Vertex source) {
  return options.placement_anchor == kNoVertex ? source
                                               : options.placement_anchor;
}

// Maps the laziness policy onto the graph at hand. auto_bipartite reads the
// graph's memoized property cache, so resolution is O(1) and
// allocation-free per trial (the one-time traversal happens on the first
// query against each graph).
[[nodiscard]] Laziness resolve_laziness(const Graph& g, LazyMode mode);

// The explicit agent-count override, or |A| = round(alpha * n).
[[nodiscard]] std::size_t resolve_agent_count(Vertex n,
                                              std::size_t agent_count,
                                              double alpha);
[[nodiscard]] inline std::size_t resolve_agent_count(
    const Graph& g, const WalkOptions& options) {
  return resolve_agent_count(g.num_vertices(), options.agent_count,
                             options.alpha);
}

// Scenario-spec plumbing shared by every WalkOptions-based simulator
// (visit-exchange, meet-exchange, hybrid, dynamic-agent, multi-rumor).
// Keys: alpha, agents, placement (stationary|one_per_vertex|uniform|
// at_vertex), anchor (vertex id or "source"), lazy (never|always|auto),
// max_rounds, tp, curve, plus the intervention keys (stifle, block,
// block@t).
// set_walk_option returns false for an unknown key or unparsable value;
// format_walk_options appends only keys that differ from `defaults`, so the
// canonical spec text of a default spec is the bare protocol name.
[[nodiscard]] bool set_walk_option(WalkOptions& options, std::string_view key,
                                   std::string_view value);
// As set_walk_option but WITHOUT the trace and intervention keys — for
// simulators that honor the agent substrate and the transmission
// probability but can honor neither traces nor interventions (multi-rumor:
// its packed rumor masks carry no inform ages): accepting curve=on or
// stifle=3 there would parse, round-trip, and silently do nothing.
[[nodiscard]] bool set_agent_walk_option(WalkOptions& options,
                                         std::string_view key,
                                         std::string_view value);
void format_walk_options(const WalkOptions& options,
                         const WalkOptions& defaults,
                         spec_text::KeyValWriter& out);
// Formatter mirror of set_agent_walk_option (no trace keys): a formatter
// must never emit a key its set hook rejects, or parse(name()) breaks.
void format_agent_walk_options(const WalkOptions& options,
                               const WalkOptions& defaults,
                               spec_text::KeyValWriter& out);

// TraceOptions plumbing (also used by the non-walk protocols). The one
// trace key is `curve`: the informed curves are the only trace a
// scenario's TrialSet keeps. inform_rounds and edge_traffic stay C++-only
// (set TraceOptions directly and read the RunResult).
[[nodiscard]] bool set_trace_option(TraceOptions& trace, std::string_view key,
                                    std::string_view value);
void format_trace_options(const TraceOptions& trace,
                          const TraceOptions& defaults,
                          spec_text::KeyValWriter& out);

}  // namespace rumor
