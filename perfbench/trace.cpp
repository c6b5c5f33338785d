// perfbench_trace: the traced half of the end-to-end benchmark.
//
// Re-runs one generated scenario file layer by layer. Each layer's public
// entry point is called inside a span, so the per-layer numbers explain
// where an untraced `rumor_run` of the same file spends its time:
//
//   experiments  parse_scenario_stream, validate_scenarios,
//                prepare_scenario, run_trial_batches (on_trial_done stamps)
//   graph        GraphSpec::make on this thread and inside a pool task
//   core         run_protocol per trial on per-thread TrialArenas,
//                TransmissionModel::bind, wide-trial width and engine
//                comparisons
//   walk         stationary placement and step_walks / step_walks_sharded
//   support      ThreadPool::parallel_for_ranges fan-out
//
//   perfbench_trace --scenarios=FILE --seed=S --jobs=N --workload=NAME
//                   --csv=OUT.csv --json=OUT.json
//
// OUT.csv holds the run_trial_batches results in rumor_run's CSV format;
// perfbench/run.py compares it byte for byte with an untraced run of the
// same file and seed. The run_protocol pass re-runs every trial and must
// reproduce those results exactly, or the trial counts as failed. OUT.json
// holds the metrics, every span (name, start, end, parent, workload,
// scenario) and the counts; spans stay in memory until the end.
//
// Exit status: 0 when every trial ran and both passes agree, 1 when a
// trial threw or the passes disagree (the JSON is still written), 2 on
// usage or scenario errors.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/sharding.hpp"
#include "core/transmission.hpp"
#include "experiments/report.hpp"
#include "experiments/scenario.hpp"
#include "support/spec_text.hpp"
#include "support/thread_pool.hpp"
#include "support/trial_arena.hpp"
#include "walk/agents.hpp"
#include "walk/step_kernel.hpp"

namespace {

using namespace rumor;
using Clock = std::chrono::steady_clock;

// Round caps for the extra trials behind core.bind_s and the wide-trial
// per-round slopes. A cap keeps the trajectory's prefix, so a capped trial
// is still "the same trial" on both sides of each difference, and the
// 10^7-agent scenarios stay affordable.
constexpr Round kBindRounds = 1;
constexpr std::pair<Round, Round> kSlopeRounds = {1, 3};
// Agent steps timed per walk graph for walk.steps_per_s.
constexpr double kWalkSteps = 4.0e7;
// Empty fan-outs timed for support.fanout_us.
constexpr int kFanoutCalls = 2000;

// Sharded passes per round, from the per-simulator coverage table in
// docs/perf.md ("Frontier-sharded rounds and the two-axis schedule").
int sharded_passes_per_round(Protocol p) {
  switch (p) {
    case Protocol::push: return 2;
    case Protocol::push_pull: return 2;
    case Protocol::visit_exchange: return 3;
    case Protocol::meet_exchange: return 3;
    case Protocol::hybrid: return 4;
    default: return 0;
  }
}

bool is_walk_protocol(Protocol p) {
  return p == Protocol::visit_exchange || p == Protocol::meet_exchange ||
         p == Protocol::hybrid;
}

const Clock::time_point kEpoch = Clock::now();

// A small id per thread, assigned on first call.
int thread_slot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1);
  return slot;
}

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Spans recorded on the main thread (pool tasks report through
// preallocated per-trial slots that are turned into spans afterwards).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::string scenario;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, int id) : tracer_(tracer), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { tracer_.close(id_); }
    [[nodiscard]] int id() const { return id_; }
    [[nodiscard]] double seconds() const {
      const Span& s = tracer_.spans_[static_cast<std::size_t>(id_)];
      return (s.end > 0.0 ? s.end : now_s()) - s.start;
    }

   private:
    Tracer& tracer_;
    int id_;
  };

  // Opens a child of the innermost open span; it closes when the returned
  // scope ends.
  Scope open(std::string name, std::string scenario = {}) {
    return Scope(*this, begin(std::move(name), std::move(scenario)));
  }

  // As open(), for a scope whose lifetime the caller manages.
  int begin(std::string name, std::string scenario = {}) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    const int id =
        add(std::move(name), now_s(), 0.0, parent, std::move(scenario));
    stack_.push_back(id);
    return id;
  }

  // Records an already-finished span.
  int add(std::string name, double start, double end, int parent,
          std::string scenario) {
    spans_.push_back({std::move(name), start, end, parent,
                      std::move(scenario)});
    return static_cast<int>(spans_.size()) - 1;
  }

  void write(std::ostream& out, const std::string& workload) const {
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": " << json_string(s.name)
          << ", \"start\": " << json_number(s.start)
          << ", \"end\": " << json_number(s.end)
          << ", \"parent\": " << s.parent
          << ", \"workload\": " << json_string(workload)
          << ", \"scenario\": " << json_string(s.scenario) << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]";
  }

 private:
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

struct Args {
  std::string scenarios;
  std::string workload = "unnamed";
  std::string csv;
  std::string json;
  std::uint64_t seed = kDefaultMasterSeed;
  std::size_t jobs = 0;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&](std::string_view key) -> std::optional<std::string> {
      if (!arg.starts_with(key)) return std::nullopt;
      return std::string(arg.substr(key.size()));
    };
    if (auto v = value("--scenarios=")) {
      args.scenarios = *v;
    } else if (auto v = value("--workload=")) {
      args.workload = *v;
    } else if (auto v = value("--csv=")) {
      args.csv = *v;
    } else if (auto v = value("--json=")) {
      args.json = *v;
    } else if (auto v = value("--seed=")) {
      const auto n = spec_text::parse_u64(*v);
      if (!n) return std::nullopt;
      args.seed = *n;
    } else if (auto v = value("--jobs=")) {
      const auto n = spec_text::parse_u64(*v);
      if (!n || *n == 0 || *n > 1024) return std::nullopt;
      args.jobs = static_cast<std::size_t>(*n);
    } else {
      return std::nullopt;
    }
  }
  if (args.scenarios.empty() || args.csv.empty() || args.json.empty()) {
    return std::nullopt;
  }
  return args;
}

// The round cap and sharding switch live in each protocol's own options.
Round& max_rounds_of(ProtocolSpec& spec) {
  switch (spec.protocol) {
    case Protocol::push: return spec.push().max_rounds;
    case Protocol::push_pull: return spec.push_pull().max_rounds;
    default: return spec.walk().max_rounds;
  }
}

std::uint32_t& shards_of(ProtocolSpec& spec) {
  switch (spec.protocol) {
    case Protocol::push: return spec.push().shards;
    case Protocol::push_pull: return spec.push_pull().shards;
    default: return spec.walk().shards;
  }
}

const TransmissionOptions& transmission_of(const ProtocolSpec& spec) {
  switch (spec.protocol) {
    case Protocol::push: return spec.push().transmission;
    case Protocol::push_pull: return spec.push_pull().transmission;
    default: return spec.walk().transmission;
  }
}

ProtocolSpec capped(ProtocolSpec spec, Round rounds) {
  Round& cap = max_rounds_of(spec);
  if (cap == 0 || cap > rounds) cap = rounds;
  return spec;
}

TrialArena& arena_for_thread() {
  thread_local TrialArena arena;
  return arena;
}

struct TimedTrial {
  TrialResult result;
  double seconds = 0.0;
};

TimedTrial timed_trial(const Graph& g, const ProtocolSpec& spec,
                       Vertex source, std::uint64_t seed, TrialArena& arena) {
  const double t0 = now_s();
  TimedTrial out{run_protocol(g, spec, source, seed, &arena), 0.0};
  out.seconds = now_s() - t0;
  return out;
}

bool same_trajectory(const TrialResult& a, const TrialResult& b) {
  return a.rounds == b.rounds && a.agent_rounds == b.agent_rounds &&
         a.informed == b.informed && a.completed == b.completed;
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, pct / 100.0);
}

// The highest common percentile with at least ten samples beyond it; the
// maximum when there are fewer than twenty samples.
double tail_percentile(std::size_t n) {
  for (const double pct : {99.9, 99.0, 98.0, 95.0, 90.0}) {
    if (static_cast<double>(n) * (1.0 - pct / 100.0) >= 10.0) return pct;
  }
  return 100.0;
}

// One distinct graph of the file, shared by the scenarios that name it.
struct GraphEntry {
  GraphSpec spec;
  std::uint64_t seed = 0;
  GraphProbe probe;
  std::optional<Graph> graph;
  bool lazy = false;
  bool wide = false;
  std::vector<std::size_t> scenarios;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--host") {
    // Host facts for the run manifest, from sysconf (glibc answers the
    // cache sizes from cpuid).
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
    const double ram = static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
                       static_cast<double>(sysconf(_SC_PAGE_SIZE));
    std::printf("{\"llc_bytes\": %ld, \"ram_bytes\": %.0f}\n", llc, ram);
    return 0;
  }
  const auto parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: %s --scenarios=FILE --csv=OUT --json=OUT "
                 "[--seed=S] [--jobs=N] [--workload=NAME]\n",
                 argv[0]);
    return 2;
  }
  const Args& args = *parsed;
  if (args.jobs != 0) set_global_pool_workers(args.jobs);
  ThreadPool& pool = global_pool();
  const std::size_t workers = pool.worker_count();

  Tracer tracer;
  std::map<std::string, double> metrics;
  std::map<std::string, double> counts;
  std::size_t failed_trials = 0;
  std::size_t mismatched_trials = 0;
  std::string error;
  std::optional<Tracer::Scope> root;
  root.emplace(tracer, tracer.begin("benchmark.traced_run"));

  // ---- experiments: parse, validate, prepare, run ------------------------
  std::vector<ScenarioSpec> specs;
  {
    const auto span = tracer.open("experiments.parse");
    std::ifstream in(args.scenarios);
    auto loaded = in ? parse_scenario_stream(in, &error) : std::nullopt;
    if (!loaded || loaded->empty()) {
      std::fprintf(stderr, "%s: %s\n", args.scenarios.c_str(),
                   in ? error.c_str() : "cannot read");
      return 2;
    }
    specs = std::move(*loaded);
    // rumor_run --seed=S overrides every scenario's master seed the same
    // way, after parsing.
    for (ScenarioSpec& spec : specs) spec.plan.seed = args.seed;
    metrics["experiments.parse_s"] = span.seconds();
  }
  const std::size_t num_scenarios = specs.size();
  // The layer calls below reach into the five round-based simulators'
  // options (round cap, shards=, transmission) and a fixed graph.
  for (const ScenarioSpec& spec : specs) {
    if (spec.plan.fresh_graph ||
        sharded_passes_per_round(spec.protocol.protocol) == 0) {
      std::fprintf(stderr, "%s: only fixed-graph push, push-pull, "
                   "visit-exchange, meet-exchange and hybrid scenarios are "
                   "traced\n", spec.name().c_str());
      return 2;
    }
  }
  {
    const auto span = tracer.open("experiments.validate");
    if (!validate_scenarios(specs, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    metrics["experiments.validate_s"] = span.seconds();
  }
  // As run_scenarios does: prepare every scenario (random graphs are drawn
  // again here), then submit one batch per scenario to the global queue.
  std::vector<ScenarioResult> results(num_scenarios);
  std::vector<PreparedScenario> prepared(num_scenarios);
  {
    const auto span = tracer.open("experiments.prepare");
    for (std::size_t s = 0; s < num_scenarios; ++s) {
      if (!prepare_scenario(specs[s], results[s], prepared[s], &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
    }
    metrics["experiments.prepare_s"] = span.seconds();
  }
  std::vector<TrialBatch> batches(num_scenarios);
  std::vector<std::size_t> offsets(num_scenarios + 1, 0);
  for (std::size_t s = 0; s < num_scenarios; ++s) {
    TrialBatch& batch = batches[s];
    if (prepared[s].lazy) {
      batch.lazy_spec = &specs[s].graph;
    } else {
      batch.graph = &*prepared[s].graph;
    }
    batch.protocol = &specs[s].protocol;
    batch.source = specs[s].plan.source;
    batch.trials = specs[s].plan.trials;
    batch.master_seed = specs[s].plan.seed;
    batch.cost_hint = static_cast<std::size_t>(results[s].n) * batch.trials;
    batch.out = &results[s].set;
    offsets[s + 1] = offsets[s] + batch.trials;
  }
  const std::size_t total_trials = offsets.back();
  // The scheduler's wide axis: fewer queued trials than workers, on a
  // graph where the scenario's sharded engine is on.
  std::vector<bool> wide(num_scenarios, false);
  for (std::size_t s = 0; s < num_scenarios; ++s) {
    wide[s] = workers >= 2 && total_trials < workers &&
              sharding_enabled(specs[s].protocol.shards(), results[s].n);
  }

  // Completion stamp and completing thread of every trial.
  std::vector<double> done_at(total_trials, 0.0);
  std::vector<int> done_on(total_trials, 0);
  double run_start = 0.0;
  {
    const auto span = tracer.open("experiments.run");
    TrialRunOptions options;
    options.pool = &pool;
    options.on_trial_done = [&](std::size_t b, std::size_t i) {
      done_at[offsets[b] + i] = now_s();
      done_on[offsets[b] + i] = thread_slot();
    };
    run_start = now_s();
    try {
      run_trial_batches(batches, options);
    } catch (const TrialBatchError& e) {
      std::fprintf(stderr, "scenario \"%s\" failed: %s\n",
                   specs[e.batch_index()].name().c_str(), e.what());
      failed_trials += batches[e.batch_index()].trials;
    }
    metrics["experiments.run_s"] = span.seconds();
  }
  {
    std::ofstream csv(args.csv);
    csv << scenario_csv_header_line() << "\n";
    for (const ScenarioResult& r : results) {
      csv << scenario_csv_line(r) << "\n";
    }
    if (!csv) {
      std::fprintf(stderr, "cannot write %s\n", args.csv.c_str());
      return 2;
    }
  }
  // Wide trials run first, one after another, each on the whole pool; the
  // narrow ones then drain one trial per worker. Tail: from the moment
  // fewer unfinished narrow trials than workers remained (so some worker
  // had nothing left to claim) to the last completion. Utilization: each
  // worker counts as busy until its last completion, and every worker
  // during the wide trials.
  {
    double wide_end = run_start;
    std::vector<double> stamps;
    std::map<int, double> last_on_thread;
    for (std::size_t s = 0; s < num_scenarios; ++s) {
      for (std::size_t f = offsets[s]; f < offsets[s + 1]; ++f) {
        if (wide[s]) {
          wide_end = std::max(wide_end, done_at[f]);
          continue;
        }
        stamps.push_back(done_at[f]);
        double& last = last_on_thread[done_on[f]];
        last = std::max(last, done_at[f]);
      }
    }
    std::sort(stamps.begin(), stamps.end());
    double tail = 0.0;
    if (!stamps.empty()) {
      const double from = stamps.size() >= workers
                              ? stamps[stamps.size() - workers]
                              : wide_end;
      tail = stamps.back() - from;
    }
    double busy = (wide_end - run_start) * static_cast<double>(workers);
    for (const auto& [thread, last] : last_on_thread) busy += last - wide_end;
    metrics["experiments.tail_s"] = tail;
    metrics["experiments.util"] =
        busy / (metrics["experiments.run_s"] * static_cast<double>(workers));
  }

  // ---- graph: one build per distinct graph -------------------------------
  std::vector<GraphEntry> graphs;
  std::vector<std::size_t> graph_of(num_scenarios, 0);
  {
    std::map<std::string, std::size_t> index;
    for (std::size_t s = 0; s < num_scenarios; ++s) {
      // Every scenario runs under the one --seed, so equal graph text
      // means an equal graph, random families included.
      const GraphSpec& gs = specs[s].graph;
      auto [it, inserted] = index.emplace(gs.name(), graphs.size());
      if (inserted) {
        GraphEntry entry;
        entry.spec = gs;
        entry.seed = derive_seed(specs[s].plan.seed ^ kGraphSeedSalt, 0);
        entry.probe = *gs.probe();
        entry.lazy = prepared[s].lazy;
        graphs.push_back(std::move(entry));
      }
      graph_of[s] = it->second;
      graphs[it->second].scenarios.push_back(s);
      graphs[it->second].wide = graphs[it->second].wide || wide[s];
    }
  }
  // The prepared graphs are no longer needed: each is rebuilt below.
  prepared.clear();
  {
    double build_s = 0.0;
    double in_pool_s = 0.0;
    double owned_s = 0.0;
    double owned_edges = 0.0;
    double bytes = 0.0;
    for (GraphEntry& entry : graphs) {
      const std::string label = entry.spec.name();
      {
        const auto span = tracer.open("graph.build", label);
        Rng rng(entry.seed);
        entry.graph.emplace(entry.spec.make(rng));
        const double dt = span.seconds();
        build_s += dt;
        if (entry.graph->backend() == GraphBackend::owned) {
          owned_s += dt;
          owned_edges += static_cast<double>(entry.graph->num_edges());
        }
      }
      bytes += static_cast<double>(entry.probe.graph_bytes);
      if (!entry.lazy) continue;
      // The scheduler builds lazy graphs from whichever worker claims the
      // batch's first trial: time the same call from a pool task.
      const auto span = tracer.open("graph.build_in_pool", label);
      std::atomic<bool> on_worker{false};
      double dt = 0.0;
      pool.parallel_for_indexed(
          workers,
          [&](std::size_t worker, std::size_t i) {
            if (i != 0) return;
            on_worker.store(worker < workers);
            Rng rng(entry.seed);
            const double t0 = now_s();
            const Graph g = entry.spec.make(rng);
            dt = now_s() - t0;
          },
          1);
      if (!on_worker.load()) {
        std::fprintf(stderr, "in-pool build ran on the calling thread\n");
      }
      in_pool_s += dt;
    }
    metrics["graph.build_s"] = build_s;
    metrics["graph.build_in_pool_s"] = in_pool_s;
    metrics["graph.edges_per_s"] = owned_s > 0.0 ? owned_edges / owned_s : 0;
    metrics["graph.bytes"] = bytes;
  }

  // ---- core: bind costs on fresh arenas ----------------------------------
  {
    double bind_s = 0.0;
    double tx_bind_s = 0.0;
    for (std::size_t s = 0; s < num_scenarios; ++s) {
      const Graph& g = *graphs[graph_of[s]].graph;
      const ScenarioSpec& spec = specs[s];
      const std::string label = spec.display_label();
      const std::uint64_t seed = derive_seed(spec.plan.seed, 0);
      {
        const auto span = tracer.open("core.tx_bind", label);
        TrialArena fresh;
        TransmissionModel model;
        model.bind(g, transmission_of(spec.protocol), fresh, seed);
        tx_bind_s += span.seconds();
      }
      const auto span = tracer.open("core.bind", label);
      const ProtocolSpec probe = capped(spec.protocol, kBindRounds);
      TrialArena fresh;
      const TimedTrial cold =
          timed_trial(g, probe, spec.plan.source, seed, fresh);
      const TimedTrial warm =
          timed_trial(g, probe, spec.plan.source, seed, fresh);
      bind_s += std::max(0.0, cold.seconds - warm.seconds);
    }
    metrics["core.bind_s"] = bind_s;
    metrics["core.tx_bind_s"] = tx_bind_s;
  }

  // ---- core: every trial through run_protocol ----------------------------
  // The same (scenario, trial) set the scheduler ran, on the same axis,
  // each trial timed alone. Results must match the scheduler's exactly.
  struct Slot {
    TrialResult result;
    double start = 0.0;
    double end = 0.0;
    bool threw = false;
  };
  std::vector<Slot> slots(total_trials);
  std::vector<std::size_t> scenario_of(total_trials, 0);
  for (std::size_t s = 0; s < num_scenarios; ++s) {
    for (std::size_t f = offsets[s]; f < offsets[s + 1]; ++f) {
      scenario_of[f] = s;
    }
  }
  auto run_slot = [&](std::size_t f) {
    const std::size_t s = scenario_of[f];
    const ScenarioSpec& spec = specs[s];
    Slot& slot = slots[f];
    slot.start = now_s();
    try {
      slot.result = run_protocol(*graphs[graph_of[s]].graph, spec.protocol,
                                 spec.plan.source,
                                 derive_seed(spec.plan.seed, f - offsets[s]),
                                 &arena_for_thread());
    } catch (const std::exception&) {
      slot.threw = true;
    }
    slot.end = now_s();
  };
  {
    const auto pass = tracer.open("core.run_protocol");
    std::vector<std::size_t> narrow;
    for (std::size_t f = 0; f < total_trials; ++f) {
      if (wide[scenario_of[f]]) {
        ThreadPool* prev = set_shard_pool(&pool);
        run_slot(f);
        set_shard_pool(prev);
      } else {
        narrow.push_back(f);
      }
    }
    pool.parallel_for_indexed(
        narrow.size(),
        [&](std::size_t, std::size_t idx) {
          ThreadPool* prev = set_shard_pool(&pool);
          run_slot(narrow[idx]);
          set_shard_pool(prev);
        },
        1);
    for (std::size_t f = 0; f < total_trials; ++f) {
      tracer.add("core.trial", slots[f].start, slots[f].end, pass.id(),
                 specs[scenario_of[f]].display_label());
    }
  }
  std::map<std::string, double> busy;
  std::map<std::string, double> rounds;
  std::vector<double> scenario_rounds(num_scenarios, 0.0);
  std::vector<double> scenario_busy(num_scenarios, 0.0);
  std::vector<double> trial_s;
  for (const Protocol p :
       {Protocol::push, Protocol::push_pull, Protocol::visit_exchange,
        Protocol::meet_exchange, Protocol::hybrid}) {
    busy[protocol_name(p)] = 0.0;
    rounds[protocol_name(p)] = 0.0;
  }
  for (std::size_t f = 0; f < total_trials; ++f) {
    const std::size_t s = scenario_of[f];
    const Slot& slot = slots[f];
    const std::string name = protocol_name(specs[s].protocol.protocol);
    const double dt = slot.end - slot.start;
    if (slot.threw) {
      ++failed_trials;
      continue;
    }
    busy[name] += dt;
    rounds[name] += slot.result.rounds;
    scenario_busy[s] += dt;
    scenario_rounds[s] += slot.result.rounds;
    trial_s.push_back(dt);
    const TrialSet& set = results[s].set;
    const std::size_t i = f - offsets[s];
    if (i >= set.rounds.size() || set.rounds[i] != slot.result.rounds ||
        set.agent_rounds[i] != slot.result.agent_rounds ||
        set.informed[i] != slot.result.informed) {
      ++mismatched_trials;
    }
  }
  for (const auto& [name, seconds] : busy) {
    metrics["core.busy_s." + name] = seconds;
  }
  for (const auto& [name, count] : rounds) {
    metrics["core.rounds." + name] = count;
  }
  metrics["core.trial_s.p50"] = percentile(trial_s, 50.0);
  const double tail_pct = tail_percentile(trial_s.size());
  metrics["core.trial_s.tail"] = percentile(trial_s, tail_pct);
  metrics["core.trial_s.n"] = static_cast<double>(trial_s.size());
  counts["core.trial_s.tail_pct"] = tail_pct;

  // ---- core: shard width and engine comparisons --------------------------
  // Per-round times. A wide trial's per-trial set-up (O(n) placement at
  // 10^7 agents) would swamp a few rounds, so on the first wide scenario
  // each side is the slope between trials capped at kSlopeRounds.first and
  // .second rounds (same trajectory prefix). Narrow trials are short: each
  // side is one whole trial's time over its rounds, on a warm arena.
  {
    // `last` receives the (longest) trial's result.
    const auto time_per_round = [&](const Graph& g, const ProtocolSpec& spec,
                                    const ScenarioSpec& scenario, bool slope,
                                    TrialResult& last) {
      const std::uint64_t seed = derive_seed(scenario.plan.seed, 0);
      TrialArena& arena = arena_for_thread();
      if (!slope) {
        const TimedTrial t =
            timed_trial(g, spec, scenario.plan.source, seed, arena);
        last = t.result;
        return t.result.rounds > 0 ? t.seconds / t.result.rounds : 0.0;
      }
      const TimedTrial lo =
          timed_trial(g, capped(spec, kSlopeRounds.first),
                      scenario.plan.source, seed, arena);
      const TimedTrial hi =
          timed_trial(g, capped(spec, kSlopeRounds.second),
                      scenario.plan.source, seed, arena);
      last = hi.result;
      const double rounds = hi.result.rounds - lo.result.rounds;
      return rounds > 0 ? std::max(0.0, hi.seconds - lo.seconds) / rounds
                        : 0.0;
    };
    double speedup = 0.0;
    std::vector<double> log_ratios;
    bool sloped = false;
    ThreadPool one_worker(1);
    for (std::size_t s = 0; s < num_scenarios; ++s) {
      const ScenarioSpec& spec = specs[s];
      if (wide[s] && sloped) continue;
      const Graph& g = *graphs[graph_of[s]].graph;
      const std::string label = spec.display_label();
      ProtocolSpec sharded = spec.protocol;
      ProtocolSpec serial = spec.protocol;
      shards_of(serial) = 0;
      double sharded_one = 0.0;
      TrialResult last;
      if (wide[s]) {
        sloped = true;
        const auto span = tracer.open("core.shard_width", label);
        // Width follows the ambient shard pool: 1 worker, then all. Both
        // widths must follow the same trajectory.
        TrialResult wide_last;
        set_shard_pool(&one_worker);
        sharded_one = time_per_round(g, sharded, spec, true, last);
        set_shard_pool(&pool);
        const double full = time_per_round(g, sharded, spec, true, wide_last);
        set_shard_pool(nullptr);
        if (!same_trajectory(last, wide_last)) ++mismatched_trials;
        speedup = full > 0.0 ? sharded_one / full : 0.0;
      } else {
        shards_of(sharded) = 1;
        const auto span = tracer.open("core.engine_sharded", label);
        sharded_one = time_per_round(g, sharded, spec, false, last);
      }
      const auto span = tracer.open("core.engine_serial", label);
      const double serial_s = time_per_round(g, serial, spec, wide[s], last);
      if (sharded_one > 0.0 && serial_s > 0.0) {
        log_ratios.push_back(std::log(sharded_one / serial_s));
      }
    }
    metrics["core.shard_speedup"] = speedup;
    double mean_log = 0.0;
    for (const double r : log_ratios) mean_log += r;
    metrics["core.sharded_vs_serial"] =
        log_ratios.empty()
            ? 0.0
            : std::exp(mean_log / static_cast<double>(log_ratios.size()));
  }

  // ---- walk: placement and stepping on each walk-protocol graph ----------
  {
    double place_s = 0.0;
    double steps = 0.0;
    double step_s = 0.0;
    double walk_busy = 0.0;
    double modelled_step_s = 0.0;
    for (GraphEntry& entry : graphs) {
      bool walked = false;
      for (const std::size_t s : entry.scenarios) {
        walked = walked || is_walk_protocol(specs[s].protocol.protocol);
      }
      if (!walked) continue;
      const Graph& g = *entry.graph;
      const std::string label = entry.spec.name();
      const std::size_t n = g.num_vertices();
      TrialArena fresh;
      Rng rng(entry.seed);
      std::optional<AgentSystem> agents;
      {
        const auto span = tracer.open("walk.place", label);
        agents.emplace(g, n, Placement::stationary, rng, 0, &fresh);
        place_s += span.seconds();
      }
      const auto rounds_to_time = static_cast<std::uint64_t>(
          std::max(2.0, std::ceil(kWalkSteps / static_cast<double>(n))));
      const auto span = tracer.open("walk.step", label);
      const double t0 = now_s();
      for (std::uint64_t r = 0; r < rounds_to_time; ++r) {
        if (entry.wide) {
          step_walks_sharded(g, agents->positions_mut(), entry.seed, r,
                             Laziness::none,
                             static_cast<std::uint32_t>(workers));
        } else {
          step_walks(g, agents->positions_mut(), rng, Laziness::none);
        }
      }
      const double dt = now_s() - t0;
      const double graph_steps =
          static_cast<double>(n) * static_cast<double>(rounds_to_time);
      steps += graph_steps;
      step_s += dt;
      const double rate = graph_steps / dt;
      for (const std::size_t s : entry.scenarios) {
        if (!is_walk_protocol(specs[s].protocol.protocol)) continue;
        const double agent_count = static_cast<double>(
            resolve_agent_count(g, specs[s].protocol.walk()));
        modelled_step_s += scenario_rounds[s] * agent_count / rate;
        walk_busy += scenario_busy[s];
      }
    }
    metrics["walk.place_s"] = place_s;
    metrics["walk.steps_per_s"] = step_s > 0.0 ? steps / step_s : 0.0;
    metrics["walk.share"] = walk_busy > 0.0 ? modelled_step_s / walk_busy : 0;
  }

  // ---- support: empty fan-outs -------------------------------------------
  {
    const auto span = tracer.open("support.fanout");
    std::vector<double> us(kFanoutCalls);
    for (double& sample : us) {
      const double t0 = now_s();
      pool.parallel_for_ranges(workers, workers,
                               [](std::size_t, std::size_t, std::size_t) {});
      sample = (now_s() - t0) * 1e6;
    }
    const double fanout_us = percentile(us, 50.0);
    metrics["support.fanout_us"] = fanout_us;
    double fanouts = 0.0;
    double wide_s = 0.0;
    for (std::size_t s = 0; s < num_scenarios; ++s) {
      if (!wide[s]) continue;
      fanouts += sharded_passes_per_round(specs[s].protocol.protocol) *
                 scenario_rounds[s];
      wide_s += scenario_busy[s];
    }
    metrics["support.fanout_share"] =
        wide_s > 0.0 ? fanout_us * 1e-6 * fanouts / wide_s : 0.0;
  }

  metrics["core.failed"] = static_cast<double>(failed_trials);
  counts["trials"] = static_cast<double>(total_trials);
  counts["mismatched_trials"] = static_cast<double>(mismatched_trials);
  root.reset();

  std::ofstream json(args.json);
  auto write_map = [&](const std::map<std::string, double>& values) {
    json << "{";
    bool first = true;
    for (const auto& [key, value] : values) {
      json << (first ? "" : ", ") << json_string(key) << ": "
           << json_number(value);
      first = false;
    }
    json << "}";
  };
  json << "{\"workload\": " << json_string(args.workload)
       << ", \"seed\": " << args.seed << ", \"workers\": " << workers
       << ",\n \"metrics\": ";
  write_map(metrics);
  json << ",\n \"counts\": ";
  write_map(counts);
  json << ",\n \"spans\": ";
  tracer.write(json, args.workload);
  json << "}\n";
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", args.json.c_str());
    return 2;
  }
  return failed_trials == 0 && mismatched_trials == 0 ? 0 : 1;
}
