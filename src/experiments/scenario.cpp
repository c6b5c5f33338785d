#include "experiments/scenario.hpp"

#include <fstream>
#include <sstream>

#include "experiments/claims.hpp"
#include "graph/generators.hpp"
#include "support/spec_text.hpp"

namespace rumor {

namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  while (!line.empty()) {
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string_view::npos) break;
    line.remove_prefix(start);
    const std::size_t end = line.find_first_of(" \t");
    tokens.push_back(line.substr(0, end));
    if (end == std::string_view::npos) break;
    line.remove_prefix(end);
  }
  return tokens;
}

// Applies one trailing `key=value` plan token; false = not a plan key.
bool set_plan_option(TrialPlan& plan, std::string& label,
                     std::string_view key, std::string_view value,
                     std::string* error) {
  if (key == "trials") {
    const auto v = spec_text::parse_u64(value);
    if (!v || *v == 0) {
      set_error(error, "bad value trials=" + std::string(value));
      return false;
    }
    plan.trials = static_cast<std::size_t>(*v);
  } else if (key == "seed") {
    const auto v = spec_text::parse_u64(value);
    if (!v) {
      set_error(error, "bad value seed=" + std::string(value));
      return false;
    }
    plan.seed = *v;
  } else if (key == "source") {
    const auto v = spec_text::parse_u64(value);
    if (!v) {
      set_error(error, "bad value source=" + std::string(value));
      return false;
    }
    plan.source = static_cast<Vertex>(*v);
  } else if (key == "fresh") {
    const auto v = spec_text::parse_bool(value);
    if (!v) {
      set_error(error, "bad value fresh=" + std::string(value));
      return false;
    }
    plan.fresh_graph = *v;
  } else if (key == "label") {
    // '#' would be stripped as a comment when the canonical line is
    // written to a scenario file and re-read.
    if (value.empty() || value.find('#') != std::string_view::npos) {
      set_error(error, "bad label \"" + std::string(value) +
                           "\" (must be non-empty, no '#')");
      return false;
    }
    label = std::string(value);
  } else {
    set_error(error, "unknown scenario option \"" + std::string(key) + "\"");
    return false;
  }
  return true;
}

// ---- Sweep expansion ---------------------------------------------------
//
// Expansion is textual: the line is sliced into literal pieces and sweep
// slots, every combination is re-assembled and handed to the ordinary
// scalar parser. That keeps one grammar — an expanded line is valid input
// by construction, and every parse diagnostic comes from one place.

// One swept key=value site in a line.
struct SweepSlot {
  std::string key;
  std::vector<std::string> values;
};

// A line sliced at its sweep values: literal text in `text`, or a
// substitution point referencing slots[slot].
struct LinePiece {
  std::string text;
  int slot = -1;
};

void add_literal(std::vector<LinePiece>& pieces, std::string_view text) {
  if (text.empty()) return;
  pieces.push_back({std::string(text), -1});
}

// Registers `value` as a sweep slot if it uses sweep syntax; returns
// false only on a malformed sweep. Scalar values stay literal. The label
// is free text, so a ".." inside it is not a range ("label=run1..2" was
// always legal) — but a {...} list still sweeps it.
bool add_value(std::vector<LinePiece>& pieces, std::vector<SweepSlot>& slots,
               std::string_view key, std::string_view value,
               std::string* error) {
  const bool label_range =
      key == "label" && (value.empty() || value.front() != '{');
  if (label_range || !spec_text::is_sweep_value(value)) {
    add_literal(pieces, value);
    return true;
  }
  auto expanded = spec_text::expand_sweep_value(value, error);
  if (!expanded) return false;
  pieces.push_back({std::string(), static_cast<int>(slots.size())});
  slots.push_back({std::string(key), std::move(*expanded)});
  return true;
}

// Slices one whitespace token ("key=value", "head(k=v,...)", or a bare
// head) into pieces/slots. Structurally odd tokens pass through literal —
// the scalar parser owns their diagnostics.
bool scan_token(std::vector<LinePiece>& pieces, std::vector<SweepSlot>& slots,
                std::string_view token, std::string* error) {
  const std::size_t open = token.find('(');
  if (open == std::string_view::npos) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      add_literal(pieces, token);
      return true;
    }
    add_literal(pieces, token.substr(0, eq + 1));
    return add_value(pieces, slots, token.substr(0, eq),
                     token.substr(eq + 1), error);
  }
  if (token.back() != ')') {
    add_literal(pieces, token);
    return true;
  }
  add_literal(pieces, token.substr(0, open + 1));
  std::string_view args = token.substr(open + 1, token.size() - open - 2);
  bool first = true;
  while (!args.empty()) {
    const std::size_t comma = spec_text::find_top_level_comma(args);
    const std::string_view item =
        comma == std::string_view::npos ? args : args.substr(0, comma);
    args = comma == std::string_view::npos ? std::string_view{}
                                           : args.substr(comma + 1);
    if (!first) add_literal(pieces, ",");
    first = false;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      add_literal(pieces, item);
      continue;
    }
    add_literal(pieces, item.substr(0, eq + 1));
    if (!add_value(pieces, slots, spec_text::trim(item.substr(0, eq)),
                   item.substr(eq + 1), error)) {
      return false;
    }
  }
  add_literal(pieces, ")");
  return true;
}

// "/2k" for 2048, "/0.5" for list items that aren't plain integers.
std::string label_suffix(const std::string& value) {
  if (const auto v = spec_text::parse_u64(value)) {
    return "/" + spec_text::fmt_magnitude(*v);
  }
  return "/" + value;
}

}  // namespace

std::optional<std::vector<ScenarioSpec>> expand_scenario_line(
    std::string_view line, std::string* error) {
  std::vector<LinePiece> pieces;
  std::vector<SweepSlot> slots;
  for (const std::string_view token : split_tokens(line)) {
    if (!pieces.empty()) add_literal(pieces, " ");
    if (!scan_token(pieces, slots, token, error)) return std::nullopt;
  }
  if (slots.empty()) {
    auto spec = ScenarioSpec::parse(line, error);
    if (!spec) return std::nullopt;
    return std::vector<ScenarioSpec>{std::move(*spec)};
  }
  std::size_t total = 1;
  for (const SweepSlot& slot : slots) {
    total *= slot.values.size();  // each factor <= kMaxSweepPoints
    if (total > spec_text::kMaxSweepPoints) {
      set_error(error,
                "sweep cross product exceeds " +
                    std::to_string(spec_text::kMaxSweepPoints) +
                    " scenarios");
      return std::nullopt;
    }
  }
  std::vector<ScenarioSpec> specs;
  specs.reserve(total);
  std::vector<std::size_t> idx(slots.size(), 0);
  for (;;) {
    std::string text;
    for (const LinePiece& piece : pieces) {
      text += piece.slot < 0 ? piece.text : slots[piece.slot].values[idx[piece.slot]];
    }
    auto spec = ScenarioSpec::parse(text, error);
    if (!spec) return std::nullopt;
    if (!spec->label.empty()) {
      // Derive one "/<value>" per swept key so every expanded series
      // point reports under a distinct label. A swept label already
      // distinguishes itself.
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (slots[s].key == "label") continue;
        spec->label += label_suffix(slots[s].values[idx[s]]);
      }
    }
    specs.push_back(std::move(*spec));
    // Odometer: rightmost slot varies fastest (leftmost slowest).
    std::size_t s = slots.size();
    while (s > 0 && ++idx[s - 1] == slots[s - 1].values.size()) {
      idx[--s] = 0;
    }
    if (s == 0) break;
  }
  return specs;
}

std::string ScenarioSpec::name() const {
  std::string out = graph.name() + " " + protocol.name();
  const TrialPlan defaults;
  if (plan.trials != defaults.trials) {
    out += " trials=" + std::to_string(plan.trials);
  }
  if (plan.seed != defaults.seed) {
    out += " seed=" + std::to_string(plan.seed);
  }
  if (plan.source != defaults.source) {
    out += " source=" + std::to_string(plan.source);
  }
  if (plan.fresh_graph) out += " fresh=on";
  if (!label.empty()) out += " label=" + label;
  return out;
}

std::string ScenarioSpec::display_label() const {
  if (!label.empty()) return label;
  return graph.name() + " " + protocol.name();
}

std::optional<ScenarioSpec> ScenarioSpec::parse(std::string_view line,
                                                std::string* error) {
  const std::vector<std::string_view> tokens = split_tokens(line);
  if (tokens.size() < 2) {
    set_error(error,
              "expected \"<graph-spec> <protocol-spec> [key=value...]\"");
    return std::nullopt;
  }
  ScenarioSpec spec;
  auto graph = GraphSpec::parse(tokens[0], error);
  if (!graph) return std::nullopt;
  spec.graph = *graph;
  auto protocol = ProtocolSpec::parse(tokens[1], error);
  if (!protocol) return std::nullopt;
  spec.protocol = *protocol;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      set_error(error, "expected key=value, got \"" + std::string(token) +
                           "\"");
      return std::nullopt;
    }
    if (!set_plan_option(spec.plan, spec.label, token.substr(0, eq),
                         token.substr(eq + 1), error)) {
      return std::nullopt;
    }
  }
  if (spec.plan.fresh_graph && !spec.graph.is_random()) {
    set_error(error, "fresh=on requires a random graph family, got " +
                         spec.graph.name());
    return std::nullopt;
  }
  return spec;
}

namespace {

// Shared line loop of both parse_scenario_stream forms; a null `claims`
// rejects expect lines.
std::optional<std::vector<ScenarioSpec>> parse_lines(
    std::istream& in, std::vector<Claim>* claims, std::string* error) {
  std::vector<ScenarioSpec> specs;
  std::string line;
  std::size_t line_number = 0;
  const auto fail = [&](const std::string& reason) {
    set_error(error, "line " + std::to_string(line_number) + ": " + reason);
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view text(line);
    const std::size_t hash = text.find('#');
    if (hash != std::string_view::npos) text = text.substr(0, hash);
    text = spec_text::trim(text);
    if (text.empty()) continue;
    std::string reason;
    if (is_claim_line(text)) {
      if (claims == nullptr) {
        return fail(
            "expect lines are checked by a one-shot rumor_run; this input "
            "takes scenario lines only");
      }
      auto claim = Claim::parse(text, &reason);
      if (!claim) return fail(reason);
      claim->line = line_number;
      claims->push_back(std::move(*claim));
      continue;
    }
    auto expanded = expand_scenario_line(text, &reason);
    if (!expanded) return fail(reason);
    for (ScenarioSpec& spec : *expanded) specs.push_back(std::move(spec));
  }
  if (claims != nullptr) {
    // A claim may name rows from anywhere in the file, so it is checked
    // once every line is expanded.
    for (const Claim& claim : *claims) {
      std::string reason;
      if (!check_claim(claim, specs, &reason)) {
        line_number = claim.line;
        return fail(reason);
      }
    }
  }
  return specs;
}

}  // namespace

std::optional<std::vector<ScenarioSpec>> parse_scenario_stream(
    std::istream& in, std::string* error) {
  return parse_lines(in, nullptr, error);
}

std::optional<std::vector<ScenarioSpec>> parse_scenario_stream(
    std::istream& in, std::vector<Claim>& claims, std::string* error) {
  claims.clear();
  return parse_lines(in, &claims, error);
}

std::optional<std::vector<ScenarioSpec>> load_scenario_file(
    const std::string& path, std::vector<Claim>& claims, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    set_error(error, "cannot open \"" + path + "\"");
    return std::nullopt;
  }
  return parse_scenario_stream(in, claims, error);
}

bool check_scenario_size(const ScenarioSpec& spec, Vertex n,
                         std::string* why) {
  const std::string of_graph =
      " for " + spec.graph.name() + " (n=" + std::to_string(n) + ")";
  if (spec.plan.source >= n) {
    set_error(why, "source=" + std::to_string(spec.plan.source) +
                       " is out of range" + of_graph);
    return false;
  }
  const WalkOptions* walk = spec.protocol.walk_if();
  if (walk == nullptr) return true;
  if (walk->placement == Placement::at_vertex &&
      walk->placement_anchor != kNoVertex && walk->placement_anchor >= n) {
    set_error(why, "anchor=" + std::to_string(walk->placement_anchor) +
                       " is out of range" + of_graph);
    return false;
  }
  // Agent ids are 32-bit: past kMaxAgents the ids (and the sharded
  // engine's per-agent draw slots) would wrap. agents= is bounded at
  // parse time; alpha can only be checked against n.
  const std::size_t agents =
      resolve_agent_count(n, walk->agent_count, walk->alpha);
  if (agents > kMaxAgents) {
    set_error(why, "alpha gives " + std::to_string(agents) +
                       " agents, more than the " +
                       std::to_string(kMaxAgents) + " 32-bit agent ids" +
                       of_graph);
    return false;
  }
  if (walk->placement == Placement::one_per_vertex && agents != n) {
    set_error(why, "placement=one_per_vertex needs one agent per vertex, "
                   "not " + std::to_string(agents) + of_graph);
    return false;
  }
  return true;
}

// Validates the scenario and fills the result's size columns WITHOUT
// building deterministic graphs: probe() answers n/m from the closed forms
// (or the file cache header), so validating a 10^8-vertex sweep costs
// arithmetic, not allocation. Sizes are fixed by the spec, so the source
// check covers every fresh draw too (the per-draw RUMOR_REQUIRE in the
// runner stays as backstop).
bool prepare_scenario(const ScenarioSpec& spec, ScenarioResult& result,
                      PreparedScenario& prep, std::string* error) {
  result.spec = spec;
  const auto fail = [&](const std::string& why) {
    set_error(error, "scenario \"" + spec.name() + "\": " + why);
    return false;
  };
  std::string why;
  const auto probe = spec.graph.probe(&why);
  if (!probe) return fail(spec.graph.name() + ": " + why);
  if (spec.graph.is_random()) {
    // The graph draw uses a seed stream disjoint from the trial seeds (and,
    // for fresh mode, matches trial 0's draw), so a scenario is
    // reproducible from its text alone.
    Rng graph_rng(derive_seed(spec.plan.seed ^ kGraphSeedSalt, 0));
    std::optional<Graph> g;
    try {
      g.emplace(spec.graph.make(graph_rng));
    } catch (const gen::GraphDrawError& e) {
      return fail(e.what());
    }
    result.n = g->num_vertices();
    result.edges = g->num_edges();
    // Fresh-graph scenarios redraw per trial; dropping the validation
    // draw immediately keeps it from pinning memory for the whole run.
    if (!spec.plan.fresh_graph) prep.graph = std::move(g);
  } else {
    result.n = probe->n;
    result.edges = static_cast<std::size_t>(probe->m);
    prep.lazy = true;
  }
  if (!check_scenario_size(spec, result.n, &why)) return fail(why);
  return true;
}

std::optional<ScenarioResult> run_scenario(const ScenarioSpec& spec,
                                           std::string* error) {
  auto results = run_scenarios({spec}, error);
  if (!results) return std::nullopt;
  return std::move(results->front());
}

bool validate_scenarios(const std::vector<ScenarioSpec>& specs,
                        std::string* error) {
  for (const ScenarioSpec& spec : specs) {
    ScenarioResult scratch;
    PreparedScenario prep;
    if (!prepare_scenario(spec, scratch, prep, error)) return false;
  }
  return true;
}

std::optional<std::vector<ScenarioResult>> run_scenarios(
    const std::vector<ScenarioSpec>& specs, std::string* error,
    const ScenarioRunOptions& options) {
  // Phase 1 — validate every scenario before any trial runs: a bad line at
  // the bottom of the file fails fast instead of after hours of
  // simulation. Deterministic graphs are validated analytically and built
  // lazily by the scheduler (when their first trial is claimed, released
  // when their trials drain); only random non-fresh scenarios build here,
  // because their one draw is part of the result.
  std::vector<ScenarioResult> results(specs.size());
  std::vector<PreparedScenario> prepared(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!prepare_scenario(specs[i], results[i], prepared[i], error)) {
      return std::nullopt;
    }
  }
  // Phase 2 — one global (scenario, trial) queue across the whole file.
  std::vector<TrialBatch> batches(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    TrialBatch& batch = batches[i];
    if (specs[i].plan.fresh_graph) {
      batch.fresh_spec = &specs[i].graph;
    } else if (prepared[i].lazy) {
      batch.lazy_spec = &specs[i].graph;
    } else {
      batch.graph = &*prepared[i].graph;
    }
    batch.protocol = &specs[i].protocol;
    batch.source = specs[i].plan.source;
    batch.trials = specs[i].plan.trials;
    batch.master_seed = specs[i].plan.seed;
    // Expected-cost heuristic for --order=longest-first: per-trial work is
    // roughly proportional to the graph size.
    batch.cost_hint = static_cast<std::size_t>(results[i].n) *
                      specs[i].plan.trials;
    batch.out = &results[i].set;
  }
  TrialRunOptions run_options;
  run_options.order = options.order;
  run_options.stop = options.stop;
  run_options.counters = options.counters;
  if (options.on_result) {
    run_options.on_batch_done = [&](std::size_t i) {
      options.on_result(results[i], i);
    };
  }
  try {
    const TrialRunOutcome outcome = run_trial_batches(batches, run_options);
    if (outcome.stopped) {
      // An interrupt is not a trial failure, but the result set is just as
      // partial: report it the same way so callers mark their artifacts
      // truncated instead of presenting an incomplete sweep as complete.
      set_error(error, "interrupted: stopped before all trials completed");
      return std::nullopt;
    }
  } catch (const TrialBatchError& e) {
    // Name the failing scenario: scenario files are user input, and "which
    // line died" is the difference between a fixable report and a bare
    // abort three hours in.
    set_error(error, "scenario \"" + specs[e.batch_index()].name() +
                         "\" failed: " + e.what());
    return std::nullopt;
  }
  return results;
}

// scenario_table / write_scenario_csv live in experiments/report.cpp next
// to their streaming variants so the row formats cannot drift apart.

}  // namespace rumor
