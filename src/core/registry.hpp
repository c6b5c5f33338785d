// SimulatorRegistry: the single dispatch point of the scenario API.
//
// Every simulator registers one entry — its Protocol tag, spec name,
// default options, an arena-aware trial entry point, and the option
// parse/format hooks that give ProtocolSpec its text round-trip. The
// built-in protocols are registered on first use (each core module exposes
// a register_*_simulator function; instance() calls them all), and
// downstream code can add its own entries with the same mechanism before
// running scenarios — extension is a registration, not a switch edit.
//
// Registration is not thread-safe against concurrent lookups: register
// everything up front, then run trials.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/protocol_spec.hpp"
#include "graph/graph.hpp"
#include "support/trial_arena.hpp"

namespace rumor {

struct SimulatorEntry {
  Protocol id = Protocol::push;
  std::string name;     // spec grammar head, e.g. "visit-exchange"
  std::string summary;  // one-liner for `rumor_run --list`
  ProtocolOptions defaults;

  // Runs one trial; `arena` may be null (the simulator then owns its
  // scratch). Must be a pure function of (g, options, source, seed) so the
  // trial runner's worker-count independence holds.
  TrialResult (*run)(const Graph& g, const ProtocolOptions& options,
                     Vertex source, std::uint64_t seed,
                     TrialArena* arena) = nullptr;

  // Appends the options that differ from `defaults` as key=value pairs
  // (canonical ProtocolSpec::name()).
  void (*format_options)(const ProtocolOptions& options,
                         const ProtocolOptions& defaults,
                         spec_text::KeyValWriter& out) = nullptr;

  // Applies one key=value pair; false = unknown key or bad value.
  bool (*set_option)(ProtocolOptions& options, std::string_view key,
                     std::string_view value) = nullptr;

  // The options' TraceOptions, or nullptr when the simulator records no
  // traces (multi-rumor, async).
  TraceOptions* (*trace)(ProtocolOptions& options) = nullptr;
};

class SimulatorRegistry {
 public:
  // The process-wide registry, with all built-in simulators registered.
  static SimulatorRegistry& instance();

  // Registers an entry; name and Protocol tag must be new, and the hooks
  // non-null (trace may be a function returning nullptr, not a null hook).
  void add(SimulatorEntry entry);

  [[nodiscard]] const SimulatorEntry* find(std::string_view name) const;
  [[nodiscard]] const SimulatorEntry* find(Protocol id) const;
  // As find(id), but a missing registration is a contract violation.
  [[nodiscard]] const SimulatorEntry& at(Protocol id) const;

  // Entries in registration order (built-ins first).
  [[nodiscard]] const std::vector<SimulatorEntry>& all() const {
    return entries_;
  }

 private:
  SimulatorRegistry();

  std::vector<SimulatorEntry> entries_;
};

// Registers a round simulator. `entry` carries its name, summary,
// defaults and grammar hooks; this fills the trial entry point, which runs
// one Process on the entry's Options alternative, and the trace hook.
template <class Process, class Options>
void add_round_simulator(SimulatorRegistry& registry, SimulatorEntry entry) {
  entry.run = [](const Graph& g, const ProtocolOptions& options,
                 Vertex source, std::uint64_t seed, TrialArena* arena) {
    return to_trial_result(
        Process(g, source, seed, std::get<Options>(options), arena).run());
  };
  entry.trace = [](ProtocolOptions& options) -> TraceOptions* {
    Options& opt = std::get<Options>(options);
    if constexpr (std::is_same_v<Options, DynamicAgentOptions>) {
      return &opt.walk.trace;
    } else {
      return &opt.trace;
    }
  };
  registry.add(std::move(entry));
}

// Grammar hooks shared by the simulators whose options are a bare
// WalkOptions alternative (visit-exchange, meet-exchange, hybrid): the walk
// grammar (set_walk_option/format_walk_options) plus the `shards=` key.
// The walk grammar itself does NOT parse `shards=` — simulators without a
// sharded round (dynamic-agent, multi-rumor) must reject the key rather
// than silently carry a dead option.
void sharded_walk_entry_format(const ProtocolOptions& options,
                               const ProtocolOptions& defaults,
                               spec_text::KeyValWriter& out);
bool sharded_walk_entry_set(ProtocolOptions& options, std::string_view key,
                            std::string_view value);

}  // namespace rumor
