// ScenarioSpec: the complete declarative description of one experiment —
// GraphSpec + ProtocolSpec + TrialPlan — with a one-line text form:
//
//   star(leaves=8192) push source=1 trials=50 label=push-star
//
// A scenario file is a sequence of such lines (blank lines and #-comments
// ignored); `rumor_run` executes one and renders the shared table/CSV
// report. parse(name()) round-trips, so specs can be generated, stored,
// and replayed losslessly.
//
// Any numeric value in a line may also be a *sweep* — a range
// (`leaves=2k..32k`, geometric x2; `:factor=`/`:step=` override) or a
// value list (`alpha={0.5,1,2}`) — and the line expands into the cross
// product of concrete scenarios with derived labels:
//
//   star(leaves=2k..32k:factor=4) push source=1 label=push
//     -> star(leaves=2048) push source=1 label=push/2k
//        star(leaves=8192) push source=1 label=push/8k
//        star(leaves=32768) push source=1 label=push/32k
//
// Expanded lines are plain scalar scenarios: parse(name()) round-trips on
// every one of them.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/trials.hpp"

namespace rumor {

struct Claim;  // experiments/claims.hpp

// The master seed every runner defaults to (the PODC'19 date).
constexpr std::uint64_t kDefaultMasterSeed = 20190729ULL;

// The largest trial count a plan accepts (trials=, --trials=): serve
// journals and claims trials by 32-bit index.
constexpr std::uint64_t kMaxTrials = 0xFFFFFFFFULL;

struct TrialPlan {
  std::size_t trials = 20;
  std::uint64_t seed = kDefaultMasterSeed;
  Vertex source = 0;
  // Redraw the graph per trial (random families only): averages over graph
  // randomness instead of fixing one draw.
  bool fresh_graph = false;

  friend bool operator==(const TrialPlan&, const TrialPlan&) = default;
};

struct ScenarioSpec {
  GraphSpec graph;
  ProtocolSpec protocol;
  TrialPlan plan;
  std::string label;  // optional series label (single token, no spaces)

  // Canonical line: "<graph> <protocol> [trials=..] [seed=..] [source=..]
  // [fresh=on] [label=..]" with only non-default plan keys emitted.
  [[nodiscard]] std::string name() const;
  // The label, or "<graph> <protocol>" when none was given.
  [[nodiscard]] std::string display_label() const;

  static std::optional<ScenarioSpec> parse(std::string_view line,
                                           std::string* error = nullptr);

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

struct ScenarioResult {
  ScenarioSpec spec;
  Vertex n = 0;           // vertices of the scenario's graph
  std::size_t edges = 0;  // undirected edge count
  TrialSet set;
};

// Expands one scenario line's sweep values (ranges / {...} lists, in graph
// args, protocol args, or plan keys) into the cross product of concrete
// scenarios, leftmost sweep varying slowest. A line without sweeps yields
// exactly ScenarioSpec::parse(line). When the line carries a label, each
// expanded spec's label gains one "/<value>" suffix per swept key (integer
// values in compact magnitude form: 2048 -> "2k"). Rejects what parse
// rejects, plus empty/inverted/overflowing ranges and cross products of
// more than kMaxSweepPoints scenarios.
std::optional<std::vector<ScenarioSpec>> expand_scenario_line(
    std::string_view line, std::string* error = nullptr);

// Parses a scenario stream, expanding sweep lines in place. On failure
// returns nullopt and reports "line N: <reason>" through *error. `expect`
// claim lines are rejected: this form serves inputs that have no verdict
// channel (the serve daemon's SUBMIT, trace tooling).
std::optional<std::vector<ScenarioSpec>> parse_scenario_stream(
    std::istream& in, std::string* error = nullptr);
// As above, but `expect` lines are accepted, returned through `claims` in
// file order, and checked against the expanded rows (experiments/claims.hpp):
// a claim naming no row, a power over fewer than 3 rows, or unequal pairs
// fail the load.
std::optional<std::vector<ScenarioSpec>> parse_scenario_stream(
    std::istream& in, std::vector<Claim>& claims,
    std::string* error = nullptr);
std::optional<std::vector<ScenarioSpec>> load_scenario_file(
    const std::string& path, std::vector<Claim>& claims,
    std::string* error = nullptr);

// The checks a scenario needs its graph's vertex count n for: source and
// placement anchor in range, at most kMaxAgents agents, and one agent per
// vertex under placement=one_per_vertex. It also holds the plan's result
// storage, which is sized for every trial before any runs, to
// physical_memory_bytes(). On failure the reason (without the scenario's
// name) goes to *why. prepare_scenarios runs it, and so does rumor_run
// --dry-run against the probed n.
[[nodiscard]] bool check_scenario_size(const ScenarioSpec& spec, Vertex n,
                                       std::string* why = nullptr);

// This host's physical memory in bytes (sysconf); the maximum if unknown.
[[nodiscard]] std::uint64_t physical_memory_bytes();

// One scenario vetted for execution: sizes for the report row, plus the
// graph when (and only when) preparation had to build it — random
// non-fresh specs, whose draw IS part of the result. The draw is a pure
// function of (graph spec, seed), and prepare_scenarios draws each such
// key once: the scenarios naming it hold copies of one Graph, which share
// its payload and uid. Deterministic specs validate analytically
// (GraphSpec::probe) and are built lazily by the trial scheduler; fresh
// specs redraw per trial and never hold a graph here.
struct PreparedScenario {
  std::optional<Graph> graph;
  bool lazy = false;
};

// prepare_scenarios on one scenario: validates it and fills the result's
// spec/size columns, so a scenario is accepted or rejected identically
// alone and in a file.
[[nodiscard]] bool prepare_scenario(const ScenarioSpec& spec,
                                    ScenarioResult& result,
                                    PreparedScenario& prep,
                                    std::string* error = nullptr);

// The trial batch of a prepared scenario: fresh specs redraw per trial,
// lazy ones build on first claim, the rest run on prep.graph. It points
// into `result` (spec and result slot) and `prep`, which must outlive it.
[[nodiscard]] TrialBatch scenario_batch(ScenarioResult& result,
                                        const PreparedScenario& prep);

// A scenario file prepared for one run: result rows (spec and size
// columns) and prepared graphs, index-aligned with the specs.
struct PreparedRun {
  std::vector<ScenarioResult> results;
  std::vector<PreparedScenario> prepared;
};

// Validates every scenario in file order and fills its spec/size columns
// WITHOUT building deterministic graphs (probe() answers n/m from the
// closed forms), drawing each distinct (random graph spec, seed) once.
// The first invalid scenario is reported through *error: a draw that
// gives up or cannot be allocated fails the first line naming it. The CLI
// prepares before it truncates a --csv sink, then runs what it prepared;
// the serve daemon prepares each job through it.
[[nodiscard]] std::optional<PreparedRun> prepare_scenarios(
    const std::vector<ScenarioSpec>& specs, std::string* error = nullptr);

// prepare_scenarios without keeping what it prepared, for callers that
// only need the verdict: perfbench's trace and the tests.
[[nodiscard]] bool validate_scenarios(const std::vector<ScenarioSpec>& specs,
                                      std::string* error = nullptr);

struct ScenarioRunOptions {
  // Fired once per scenario, in FILE ORDER, as completions allow (the
  // streaming-report hook): by the time it sees index i, results[0..i]
  // are final. Runs on a worker thread under the scheduler's emission
  // lock; keep it cheap.
  std::function<void(const ScenarioResult&, std::size_t index)> on_result;
  // Claim order for the global queue. longest_first starts the highest
  // expected-cost scenarios (n·trials heuristic) first for tighter tails
  // on many-scenario files; results and report order are identical either
  // way.
  BatchOrder order = BatchOrder::file;
  // Graceful-stop flag (the CLI's SIGINT/SIGTERM handler): once true, no
  // further trial is claimed and run_prepared reports "interrupted"
  // through *error (already-emitted on_result rows stay emitted).
  const std::atomic<bool>* stop = nullptr;
  // Live queue-depth counters shared with --progress reporting.
  TrialCounters* counters = nullptr;
};

// Executes a prepared file through ONE global (scenario, trial) work
// queue: trials from all scenarios interleave across the thread pool — no
// per-scenario barrier, so a long-tail scenario cannot serialize the
// file. Results are in file order and identical for any worker count; a
// failing trial is reported through *error, naming its scenario.
[[nodiscard]] std::optional<std::vector<ScenarioResult>> run_prepared(
    PreparedRun run, std::string* error = nullptr,
    const ScenarioRunOptions& options = {});

// prepare_scenarios, then run_prepared.
[[nodiscard]] std::optional<std::vector<ScenarioResult>> run_scenarios(
    const std::vector<ScenarioSpec>& specs, std::string* error = nullptr,
    const ScenarioRunOptions& options = {});

// The shared report format: an aligned table for terminals, CSV (one row
// per scenario: the spec text plus the trial distribution's columns) for
// artifacts.
[[nodiscard]] std::string scenario_table(
    const std::vector<ScenarioResult>& results);
void write_scenario_csv(std::ostream& out,
                        const std::vector<ScenarioResult>& results);

}  // namespace rumor
