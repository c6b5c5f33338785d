// rumor_run: execute a scenario file through the unified scenario API —
// one-shot, as a long-lived service, or as a client of one.
//
//   rumor_run [options] <scenario-file|->      one-shot run
//   rumor_run --serve=<addr> [options]         scenario service daemon
//   rumor_run submit --to=<addr> <file|->      send a job to a daemon
//   rumor_run watch  --to=<addr> <job>         stream a job's results (CSV)
//   rumor_run stats  --to=<addr>               daemon queue statistics
//
// A scenario file holds one ScenarioSpec per line (see docs/scenarios.md),
// and any numeric value may be a sweep — a range or a value list — that
// expands the line into a series. `expect` lines state the file's claims
// about its rows:
//
//   # Figure 1(a), star family, n = 2^11..2^15
//   star(leaves=2k..32k) push           source=1 label=push
//   star(leaves=2k..32k) visit-exchange source=1 label=visit-exchange
//   expect ratio(visit-exchange, push) < 0.2
//
// After a complete one-shot run every claim prints one [ OK ] or [FAIL]
// line with both sides' values on stderr; claims are part of the file, so
// there is no flag to turn them on or off.
//
// Options:
//   --trials=N   override every scenario's trial count
//   --seed=S     override every scenario's master seed
//   --jobs=N     worker threads (default: hardware concurrency)
//   --order=K    trial claim order: file (default) or longest-first
//                (start the highest n·trials scenarios first for tighter
//                tails; reports are byte-identical either way)
//   --csv=PATH   additionally write the CSV report to PATH (the sink is
//                opened and validated BEFORE any trial runs)
//   --progress   per-scenario completion lines on stderr
//   --dry-run    parse and echo canonical expanded spec lines — each with
//                a trailing "# backend=... n=... m=... mem=..." estimate
//                comment (stripped on re-read, so the output stays valid
//                scenario input), then the file's expect lines — and run
//                nothing
//   --list       list registered simulators, graph families, graph storage
//                backends, and the shared transmission/intervention keys,
//                then exit
//
// Serve-mode options (with --serve=<addr>, repeatable; addr is unix:<path>,
// <host>:<port>, or <port>):
//   --journal=PATH  job/result journal (default serve.journal); a restart
//                   on the same journal resumes unfinished jobs
//   --budget=N      per-client pending-trial budget before SUBMIT → BUSY
//   --jobs=N        compute worker threads
//
// Exit codes (full table in docs/serve.md): 0 success, 1 a trial failed
// mid-run or the run was interrupted by SIGINT/SIGTERM (the failing
// scenario is named on stderr, and a streamed --csv gains a trailing
// "# truncated" comment), or a complete run's expect claim failed (after
// the CSV is written) — for the client subcommands, a job that ended
// cancelled/failed or a refused/lost connection; 2 usage/parse/validation
// errors, a claim that names no row included. SIGINT/SIGTERM stop a
// one-shot run gracefully: no new trial starts, in-flight trials finish,
// streamed rows stay valid.
//
// The whole file drains through ONE global (scenario, trial) work queue:
// trials from different scenarios interleave across the pool, report rows
// stream as scenarios complete (deterministic file order), and the sample
// vectors depend only on (seed, trial index) — never on --jobs or
// scheduling, so --jobs=1 and --jobs=N emit byte-identical reports.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.hpp"
#include "core/sharding.hpp"
#include "experiments/claims.hpp"
#include "experiments/report.hpp"
#include "experiments/scenario.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/spec_text.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace rumor;

// Flipped by SIGINT/SIGTERM: the one-shot runner stops claiming trials and
// the serve daemon shuts down cleanly. SA_RESETHAND restores the default
// disposition, so a second signal kills the process the ordinary way.
std::atomic<bool> g_stop{false};

void handle_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

void install_stop_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

// "0 B", "12.3 KiB", "2.0 GiB" — estimates, so one decimal is plenty.
std::string format_bytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < std::size(kUnits)) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", value, kUnits[unit]);
  }
  return buf;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--trials=N] [--seed=S] [--jobs=N] "
               "[--order=file|longest-first] [--csv=PATH] [--progress] "
               "[--dry-run] [--list] <scenario-file|->\n"
               "       %s --serve=ADDR [--serve=ADDR]... [--journal=PATH] "
               "[--budget=N] [--jobs=N]\n"
               "       %s submit --to=ADDR [--client=NAME] "
               "<scenario-file|->\n"
               "       %s watch --to=ADDR [--client=NAME] [--csv=PATH] "
               "[--progress] <job>\n"
               "       %s stats --to=ADDR\n"
               "addresses: unix:<path>, <host>:<port>, or <port> "
               "(127.0.0.1)\n",
               argv0, argv0, argv0, argv0, argv0);
  return 2;
}

void list_registry() {
  std::printf("registered simulators:\n");
  for (const SimulatorEntry& entry : SimulatorRegistry::instance().all()) {
    std::printf("  %-22s %s\n", entry.name.c_str(), entry.summary.c_str());
  }
  std::printf(
      "\ngraph families (parameter signatures from the spec grammar):\n");
  for (const std::string& signature : graph_family_signatures()) {
    std::printf("  %s\n", signature.c_str());
  }
  std::printf(
      "\ngraph storage backends (backend= key; default auto):\n"
      "  star, cycle, complete, grid, torus, circulant synthesize adjacency\n"
      "  arithmetically (implicit backend, O(1) memory at any n); "
      "backend=owned\n"
      "  forces the materialized CSR. Identical structure and seeded\n"
      "  trajectories either way.\n"
      "  file:<path>  SNAP-style edge list ('#' comments, blank lines,\n"
      "  duplicate/reversed edges deduped; self loops rejected); parsed "
      "once,\n"
      "  cached as <path>.rcsr and memory-mapped on later runs.\n");
  std::printf(
      "\nfrontier-sharded rounds (push, push-pull, visit-exchange, "
      "meet-exchange,\nhybrid):\n"
      "  shards=auto|N  auto: shard iff n >= %llu; N >= 1: always shard,\n"
      "  N partitions. One trial then fans its round across the pool when\n"
      "  queued trials can't fill it. The sharded engine draws from an\n"
      "  addressable per-slot Philox plane, so its trajectories differ\n"
      "  from the serial legacy engine but are identical for every shard\n"
      "  count and worker count.\n",
      static_cast<unsigned long long>(kShardAutoThreshold));
  std::printf(
      "\ntransmission model & interventions (protocol options; multi-rumor "
      "and async\naccept tp only):\n");
  for (const std::string& signature : transmission_key_signatures()) {
    std::printf("  %s\n", signature.c_str());
  }
  std::printf(
      "\nany numeric value sweeps: lo..hi (geometric x2; :factor=N or "
      ":step=N override,\nk/m suffixes) or {v1,v2,...}; one line expands "
      "to the cross product.\n");
}

struct CliOptions {
  std::optional<std::size_t> trials;
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> jobs;
  BatchOrder order = BatchOrder::file;
  std::string csv_path;
  bool progress = false;
  bool dry_run = false;
  bool list = false;
  std::string input;
  // Serve mode (set when at least one --serve=ADDR was given).
  std::vector<serve::Address> serve;
  std::string journal = "serve.journal";
  std::optional<std::size_t> budget;
};

std::optional<CliOptions> parse_cli(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--dry-run") {
      cli.dry_run = true;
    } else if (arg == "--list") {
      cli.list = true;
    } else if (arg == "--progress") {
      cli.progress = true;
    } else if (arg.starts_with("--trials=")) {
      const auto v = spec_text::parse_u64(arg.substr(9));
      if (!v || *v == 0) return std::nullopt;
      cli.trials = static_cast<std::size_t>(*v);
    } else if (arg.starts_with("--seed=")) {
      const auto v = spec_text::parse_u64(arg.substr(7));
      if (!v) return std::nullopt;
      cli.seed = *v;
    } else if (arg.starts_with("--jobs=")) {
      const auto v = spec_text::parse_u64(arg.substr(7));
      if (!v || *v == 0 || *v > 1024) return std::nullopt;
      cli.jobs = static_cast<std::size_t>(*v);
    } else if (arg.starts_with("--order=")) {
      const std::string_view value = arg.substr(8);
      if (value == "file") {
        cli.order = BatchOrder::file;
      } else if (value == "longest-first") {
        cli.order = BatchOrder::longest_first;
      } else {
        return std::nullopt;
      }
    } else if (arg.starts_with("--csv=")) {
      cli.csv_path = std::string(arg.substr(6));
      if (cli.csv_path.empty()) return std::nullopt;
    } else if (arg.starts_with("--serve=")) {
      std::string why;
      const auto addr = serve::parse_address(arg.substr(8), &why);
      if (!addr) {
        std::fprintf(stderr, "--serve: %s\n", why.c_str());
        return std::nullopt;
      }
      cli.serve.push_back(*addr);
    } else if (arg.starts_with("--journal=")) {
      cli.journal = std::string(arg.substr(10));
      if (cli.journal.empty()) return std::nullopt;
    } else if (arg.starts_with("--budget=")) {
      const auto v = spec_text::parse_u64(arg.substr(9));
      if (!v || *v == 0) return std::nullopt;
      cli.budget = static_cast<std::size_t>(*v);
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      return std::nullopt;
    } else if (cli.input.empty()) {
      cli.input = std::string(arg);
    } else {
      return std::nullopt;  // more than one input file
    }
  }
  return cli;
}

// ---- serve daemon --------------------------------------------------------

int serve_main(const CliOptions& cli) {
  // A watcher disconnecting mid-stream must not SIGPIPE the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  install_stop_handlers();
  serve::ServerOptions options;
  options.listen = cli.serve;
  options.journal_path = cli.journal;
  if (cli.jobs) options.workers = *cli.jobs;
  if (cli.budget) options.client_budget = *cli.budget;
  serve::Server server;
  std::string error;
  if (!server.start(options, &error)) {
    std::fprintf(stderr, "rumor_serve: %s\n", error.c_str());
    return 2;
  }
  for (const serve::Address& addr : server.addresses()) {
    std::fprintf(stderr, "rumor_serve: listening on %s\n",
                 addr.text().c_str());
  }
  std::fprintf(stderr, "rumor_serve: journal %s\n", cli.journal.c_str());
  server.run(g_stop);
  std::fprintf(stderr, "rumor_serve: shut down cleanly\n");
  return 0;
}

// ---- client subcommands --------------------------------------------------

struct ClientCli {
  std::optional<serve::Address> to;
  std::string client = "cli";
  std::string csv_path;
  bool progress = false;
  std::string input;  // submit: scenario file; watch: job id
};

std::optional<ClientCli> parse_client_cli(int argc, char** argv) {
  ClientCli cli;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--to=")) {
      std::string why;
      const auto addr = serve::parse_address(arg.substr(5), &why);
      if (!addr) {
        std::fprintf(stderr, "--to: %s\n", why.c_str());
        return std::nullopt;
      }
      cli.to = *addr;
    } else if (arg.starts_with("--client=")) {
      cli.client = std::string(arg.substr(9));
      if (cli.client.empty()) return std::nullopt;
    } else if (arg.starts_with("--csv=")) {
      cli.csv_path = std::string(arg.substr(6));
      if (cli.csv_path.empty()) return std::nullopt;
    } else if (arg == "--progress") {
      cli.progress = true;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      return std::nullopt;
    } else if (cli.input.empty()) {
      cli.input = std::string(arg);
    } else {
      return std::nullopt;
    }
  }
  if (!cli.to) {
    std::fprintf(stderr, "missing --to=ADDR\n");
    return std::nullopt;
  }
  return cli;
}

int submit_main(const ClientCli& cli) {
  if (cli.input.empty()) {
    std::fprintf(stderr, "submit: missing scenario file\n");
    return 2;
  }
  std::string text;
  if (cli.input == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    text = buf.str();
  } else {
    std::ifstream file(cli.input);
    if (!file) {
      std::fprintf(stderr, "cannot read %s\n", cli.input.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << file.rdbuf();
    text = buf.str();
  }
  serve::Client client;
  std::string error;
  if (!client.connect(*cli.to, cli.client, &error)) {
    std::fprintf(stderr, "submit: %s\n", error.c_str());
    return 1;
  }
  const auto job = client.submit(text, &error);
  if (!job) {
    std::fprintf(stderr, "submit: %s\n", error.c_str());
    // Server-side rejections of the submission itself are spec errors
    // (exit 2, like one-shot validation); BUSY/transport problems are
    // runtime conditions (exit 1) — retry later.
    return error.rfind("ERR", 0) == 0 ? 2 : 1;
  }
  std::printf("job %llu\n", static_cast<unsigned long long>(*job));
  return 0;
}

int watch_main(const ClientCli& cli) {
  if (cli.input.empty()) {
    std::fprintf(stderr, "watch: missing job id\n");
    return 2;
  }
  const auto job = spec_text::parse_u64(cli.input);
  if (!job || *job == 0) {
    std::fprintf(stderr, "watch: bad job id %s\n", cli.input.c_str());
    return 2;
  }
  serve::Client client;
  std::string error;
  if (!client.connect(*cli.to, cli.client, &error)) {
    std::fprintf(stderr, "watch: %s\n", error.c_str());
    return 1;
  }
  std::function<void(const serve::TrialUpdate&)> on_trial;
  if (cli.progress) {
    on_trial = [](const serve::TrialUpdate& update) {
      std::fprintf(stderr, "progress: scenario %u trial %u done%s\n",
                   update.scenario, update.trial,
                   update.completed ? "" : " (cutoff)");
    };
  }
  const auto result = client.watch(*job, &error, on_trial);
  if (!result) {
    std::fprintf(stderr, "watch: %s\n", error.c_str());
    return 1;
  }
  // The collected rows are byte-identical to a one-shot --csv of the same
  // scenarios, so `watch --to=... N > out.csv` replaces a local run.
  std::ofstream csv_file;
  std::ostream* out = &std::cout;
  if (!cli.csv_path.empty()) {
    csv_file.open(cli.csv_path);
    if (!csv_file) {
      std::fprintf(stderr, "cannot write %s\n", cli.csv_path.c_str());
      return 2;
    }
    out = &csv_file;
  }
  *out << scenario_csv_header_line() << "\n";
  for (const std::string& row : result->rows) *out << row << "\n";
  out->flush();
  if (result->state != "done") {
    std::fprintf(stderr, "watch: job %llu ended %s\n",
                 static_cast<unsigned long long>(*job),
                 result->state.c_str());
    return 1;
  }
  return 0;
}

int stats_main(const ClientCli& cli) {
  serve::Client client;
  std::string error;
  if (!client.connect(*cli.to, cli.client, &error)) {
    std::fprintf(stderr, "stats: %s\n", error.c_str());
    return 1;
  }
  const auto lines = client.stats(&error);
  if (!lines) {
    std::fprintf(stderr, "stats: %s\n", error.c_str());
    return 1;
  }
  for (const std::string& line : *lines) std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    const std::string_view command = argv[1];
    if (command == "submit" || command == "watch" || command == "stats") {
      std::signal(SIGPIPE, SIG_IGN);
      const auto client_cli = parse_client_cli(argc, argv);
      if (!client_cli) return usage(argv[0]);
      if (command == "submit") return submit_main(*client_cli);
      if (command == "watch") return watch_main(*client_cli);
      return stats_main(*client_cli);
    }
  }
  const auto cli = parse_cli(argc, argv);
  if (!cli) return usage(argv[0]);
  if (cli->list) {
    list_registry();
    return 0;
  }
  if (!cli->serve.empty()) {
    if (!cli->input.empty()) return usage(argv[0]);
    return serve_main(*cli);
  }
  if (cli->input.empty()) return usage(argv[0]);
  if (cli->jobs) set_global_pool_workers(*cli->jobs);

  std::string error;
  std::vector<Claim> claims;
  std::optional<std::vector<ScenarioSpec>> specs;
  if (cli->input == "-") {
    specs = parse_scenario_stream(std::cin, claims, &error);
  } else {
    specs = load_scenario_file(cli->input, claims, &error);
  }
  if (!specs) {
    std::fprintf(stderr, "%s: %s\n", cli->input.c_str(), error.c_str());
    return 2;
  }
  if (specs->empty()) {
    std::fprintf(stderr, "%s: no scenarios\n", cli->input.c_str());
    return 2;
  }
  for (ScenarioSpec& spec : *specs) {
    if (cli->trials) spec.plan.trials = *cli->trials;
    if (cli->seed) spec.plan.seed = *cli->seed;
  }

  if (cli->dry_run) {
    for (const ScenarioSpec& spec : *specs) {
      std::string why;
      const auto probe = spec.graph.probe(&why);
      if (!probe || !check_scenario_size(spec, probe->n, &why)) {
        // A parseable line with impossible parameters still echoes (this
        // is a dry run), but carries the reason a real run would exit 2.
        std::printf("%s  # invalid: %s\n", spec.name().c_str(), why.c_str());
        continue;
      }
      // The estimate rides in a '#' comment, so the dry-run output remains
      // valid scenario-file input. Sharded scenarios also report the width
      // this machine would run with (execution-only; results are
      // width-independent) — or "shards=off" when shards=auto resolves
      // disabled below the threshold, so the engine choice is explicit.
      std::string shard_note;
      if (const std::uint32_t shards_opt = spec.protocol.shards();
          shards_opt != 0) {
        shard_note =
            sharding_enabled(shards_opt, probe->n)
                ? " shards=" + std::to_string(resolve_shard_width(shards_opt))
                : " shards=off";
      }
      std::printf("%s  # backend=%s n=%llu m%s=%llu mem=%s%s\n",
                  spec.name().c_str(),
                  graph_backend_name(probe->backend),
                  static_cast<unsigned long long>(probe->n),
                  probe->m_estimated ? "~" : "",
                  static_cast<unsigned long long>(probe->m),
                  format_bytes(probe->graph_bytes).c_str(),
                  shard_note.c_str());
    }
    for (const Claim& claim : claims) {
      std::printf("%s\n", claim.text().c_str());
    }
    return 0;
  }

  // Validate every scenario up front: a bad spec exits 2 here, before a
  // --csv sink is truncated and before any trial runs — which also means
  // any run_scenarios failure below IS a runtime trial failure (exit 1),
  // not a validation error, keeping the exit codes unambiguous. The sink
  // itself is opened BEFORE the trials too (an unwritable path must fail
  // in milliseconds, not discard hours of simulation).
  if (!validate_scenarios(*specs, &error)) {
    std::fprintf(stderr, "%s: %s\n", cli->input.c_str(), error.c_str());
    return 2;
  }
  std::ofstream csv_file;
  std::optional<ScenarioCsvStream> csv;
  if (!cli->csv_path.empty()) {
    csv_file.open(cli->csv_path);
    if (!csv_file) {
      std::fprintf(stderr, "cannot write %s\n", cli->csv_path.c_str());
      return 2;
    }
    csv.emplace(csv_file);
  }

  // Rows stream in file order as scenarios complete; the trials
  // themselves interleave across the whole file's work queue. SIGINT and
  // SIGTERM flip g_stop: claimed trials finish, no new one starts, and the
  // truncated-report path below runs (exit 1).
  install_stop_handlers();
  ScenarioTableStream table(*specs, std::cout);
  const std::size_t total = specs->size();
  std::size_t rows_streamed = 0;
  TrialCounters counters;
  ScenarioRunOptions options;
  options.order = cli->order;
  options.stop = &g_stop;
  options.counters = &counters;
  options.on_result = [&](const ScenarioResult& r, std::size_t index) {
    table.row(r);
    if (csv) csv->row(r);
    ++rows_streamed;
    if (cli->progress) {
      const TrialQueueSnapshot q = counters.snapshot();
      std::fprintf(stderr,
                   "progress: %zu/%zu %s done (trials=%zu) "
                   "[queue: %zu/%zu trials done, %zu in flight]\n",
                   index + 1, total, r.spec.display_label().c_str(),
                   r.set.rounds.size(), q.trials_done, q.trials_total,
                   q.in_flight());
    }
  };
  const auto results = run_scenarios(*specs, &error, options);
  if (!results) {
    // Validation passed above, so this is a runtime trial failure: name
    // the scenario, mark any partially streamed CSV — a truncated
    // artifact that looks complete is worse than no artifact — and exit
    // 1 (distinct from the exit-2 spec errors).
    std::fprintf(stderr, "%s: %s\n", cli->input.c_str(), error.c_str());
    if (csv) {
      csv_file << "# truncated: " << rows_streamed << "/" << total
               << " scenarios completed; " << error << "\n";
      csv_file.flush();
    }
    std::fprintf(stderr, "note: report truncated after %zu/%zu scenarios\n",
                 rows_streamed, total);
    return 1;
  }
  if (csv) {
    csv_file.flush();
    if (!csv_file) {
      std::fprintf(stderr, "error writing %s\n", cli->csv_path.c_str());
      return 1;
    }
    // On stderr, like every other status line: piping the stdout table
    // into a file or another tool must never pick up bookkeeping.
    std::fprintf(stderr, "csv: %s\n", cli->csv_path.c_str());
  }
  bool claims_hold = true;
  for (const Claim& claim : claims) {
    const ClaimVerdict v = evaluate_claim(claim, *results);
    claims_hold &= v.holds;
    std::fprintf(stderr, "[%s] %s:%zu: %s  (%.6g vs %.6g)\n",
                 v.holds ? " OK " : "FAIL", cli->input.c_str(), claim.line,
                 claim.text().c_str(), v.lhs, v.rhs);
  }
  return claims_hold ? 0 : 1;
}
