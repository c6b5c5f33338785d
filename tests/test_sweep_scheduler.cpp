// Sweep grammar + cross-scenario trial scheduler.
//
// Spec layer: one line with ranges/lists expands into a canonical scenario
// series (derived labels, parse(name()) round-trip on every expanded
// spec), and malformed sweeps — empty, inverted, overflowing — are
// rejected at parse time. Scheduling layer: the global (scenario, trial)
// work queue produces sample vectors that are byte-identical for 1 worker,
// N workers, and the pre-refactor per-scenario path, with in-file-order
// completion callbacks.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "experiments/report.hpp"
#include "experiments/scenario.hpp"
#include "graph/generators.hpp"
#include "support/spec_text.hpp"
#include "support/thread_pool.hpp"
#include "support/trial_arena.hpp"

namespace rumor {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> expanded_names(const std::string& line) {
  std::string error;
  const auto specs = expand_scenario_line(line, &error);
  EXPECT_TRUE(specs) << line << ": " << error;
  std::vector<std::string> names;
  if (specs) {
    for (const ScenarioSpec& spec : *specs) names.push_back(spec.name());
  }
  return names;
}

// ---- Sweep value substrate --------------------------------------------

TEST(SweepValues, MagnitudeSuffixesAndCompactFormRoundTrip) {
  EXPECT_EQ(spec_text::parse_magnitude("2k"), 2048u);
  EXPECT_EQ(spec_text::parse_magnitude("32k"), 32768u);
  EXPECT_EQ(spec_text::parse_magnitude("3m"), 3u * 1024 * 1024);
  EXPECT_EQ(spec_text::parse_magnitude("100"), 100u);
  EXPECT_FALSE(spec_text::parse_magnitude("k"));
  EXPECT_FALSE(spec_text::parse_magnitude("2q"));
  EXPECT_FALSE(spec_text::parse_magnitude(""));
  // Suffix multiplication must not silently wrap.
  EXPECT_FALSE(spec_text::parse_magnitude("99999999999999999999k"));
  EXPECT_FALSE(spec_text::parse_magnitude("18446744073709551615k"));

  EXPECT_EQ(spec_text::fmt_magnitude(2048), "2k");
  EXPECT_EQ(spec_text::fmt_magnitude(32768), "32k");
  EXPECT_EQ(spec_text::fmt_magnitude(3u * 1024 * 1024), "3m");
  EXPECT_EQ(spec_text::fmt_magnitude(100), "100");
  EXPECT_EQ(spec_text::fmt_magnitude(0), "0");
  for (std::uint64_t v : {1ull, 100ull, 1024ull, 2048ull, 1048576ull}) {
    EXPECT_EQ(spec_text::parse_magnitude(spec_text::fmt_magnitude(v)), v);
  }
}

TEST(SweepValues, RangesExpandGeometricallyByDefault) {
  const auto values = spec_text::expand_sweep_value("2k..32k");
  ASSERT_TRUE(values);
  EXPECT_EQ(*values, (std::vector<std::string>{"2048", "4096", "8192",
                                               "16384", "32768"}));
  const auto factor4 = spec_text::expand_sweep_value("2k..32k:factor=4");
  ASSERT_TRUE(factor4);
  EXPECT_EQ(*factor4, (std::vector<std::string>{"2048", "8192", "32768"}));
  const auto stepped = spec_text::expand_sweep_value("100..500:step=200");
  ASSERT_TRUE(stepped);
  EXPECT_EQ(*stepped, (std::vector<std::string>{"100", "300", "500"}));
  // Points past hi are dropped, hi itself appears only on exact landing.
  const auto inexact = spec_text::expand_sweep_value("3..20:factor=3");
  ASSERT_TRUE(inexact);
  EXPECT_EQ(*inexact, (std::vector<std::string>{"3", "9"}));
  const auto single = spec_text::expand_sweep_value("7..7");
  ASSERT_TRUE(single);
  EXPECT_EQ(*single, (std::vector<std::string>{"7"}));
}

TEST(SweepValues, ListsKeepItemTextVerbatim) {
  const auto values = spec_text::expand_sweep_value("{0.5, 1, 2}");
  ASSERT_TRUE(values);
  EXPECT_EQ(*values, (std::vector<std::string>{"0.5", "1", "2"}));
}

TEST(SweepValues, RejectsEmptyInvertedAndOverflowingRanges) {
  std::string error;
  EXPECT_FALSE(spec_text::expand_sweep_value("32k..2k", &error));
  EXPECT_NE(error.find("inverted"), std::string::npos);
  EXPECT_FALSE(spec_text::expand_sweep_value("{}", &error));
  EXPECT_FALSE(spec_text::expand_sweep_value("{1,,2}", &error));
  EXPECT_FALSE(spec_text::expand_sweep_value("..8", &error));
  EXPECT_FALSE(spec_text::expand_sweep_value("1..", &error));
  EXPECT_FALSE(
      spec_text::expand_sweep_value("1..99999999999999999999999", &error));
  EXPECT_FALSE(spec_text::expand_sweep_value("1..8:factor=1", &error));
  EXPECT_FALSE(spec_text::expand_sweep_value("1..8:step=0", &error));
  EXPECT_FALSE(spec_text::expand_sweep_value("1..8:warp=2", &error));
  // 1..2^40 by factor 2 is 41 points — fine; by step 1 is > kMaxSweepPoints.
  EXPECT_TRUE(spec_text::expand_sweep_value("1..1099511627776", &error));
  EXPECT_FALSE(spec_text::expand_sweep_value("1..1099511627776:step=1",
                                             &error));
  EXPECT_NE(error.find("points"), std::string::npos);
}

// ---- Line expansion ----------------------------------------------------

TEST(SweepExpansion, LinesWithoutSweepsParseUnchanged) {
  const auto names =
      expanded_names("star(leaves=8192) push source=1 label=push");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "star(leaves=8192) push source=1 label=push");
}

TEST(SweepExpansion, GraphRangeExpandsWithDerivedLabels) {
  const auto names =
      expanded_names("star(leaves=2k..32k:factor=4) push source=1 label=push");
  EXPECT_EQ(names, (std::vector<std::string>{
                       "star(leaves=2048) push source=1 label=push/2k",
                       "star(leaves=8192) push source=1 label=push/8k",
                       "star(leaves=32768) push source=1 label=push/32k"}));
}

TEST(SweepExpansion, CrossProductIsLeftmostSlowest) {
  const auto names = expanded_names(
      "complete(n={16,32}) visit-exchange(alpha={0.5,0.25}) trials=3 "
      "label=vx");
  EXPECT_EQ(names,
            (std::vector<std::string>{
                "complete(n=16) visit-exchange(alpha=0.5) trials=3 "
                "label=vx/16/0.5",
                "complete(n=16) visit-exchange(alpha=0.25) trials=3 "
                "label=vx/16/0.25",
                "complete(n=32) visit-exchange(alpha=0.5) trials=3 "
                "label=vx/32/0.5",
                "complete(n=32) visit-exchange(alpha=0.25) trials=3 "
                "label=vx/32/0.25"}));
}

TEST(SweepExpansion, PlanKeysSweepToo) {
  const auto names = expanded_names("complete(n=16) push trials={2,4}");
  EXPECT_EQ(names, (std::vector<std::string>{"complete(n=16) push trials=2",
                                             "complete(n=16) push trials=4"}));
}

TEST(SweepExpansion, EveryExpandedSpecRoundTrips) {
  std::string error;
  const auto specs = expand_scenario_line(
      "circulant(n=256..1k,k={2,4}) meet-exchange(lazy={always,never}) "
      "trials=5 seed=7 label=mx",
      &error);
  ASSERT_TRUE(specs) << error;
  EXPECT_EQ(specs->size(), 3u * 2u * 2u);
  for (const ScenarioSpec& spec : *specs) {
    const auto reparsed = ScenarioSpec::parse(spec.name(), &error);
    ASSERT_TRUE(reparsed) << spec.name() << ": " << error;
    EXPECT_EQ(*reparsed, spec) << spec.name();
  }
}

TEST(SweepExpansion, Fig1aSweepReproducesExplicitScenarioLines) {
  // The acceptance criterion: the 4-line sweep form of fig1a.scn expands
  // to exactly the twelve hand-written canonical specs it replaced.
  std::istringstream sweep(
      "star(leaves=2k..32k:factor=4) push           source=1 label=push\n"
      "star(leaves=2k..32k:factor=4) push-pull      source=1 "
      "label=push-pull\n"
      "star(leaves=2k..32k:factor=4) visit-exchange source=1 "
      "label=visit-exchange\n"
      "star(leaves=2k..32k:factor=4) meet-exchange  source=1 "
      "label=meet-exchange\n");
  std::string error;
  const auto specs = parse_scenario_stream(sweep, &error);
  ASSERT_TRUE(specs) << error;
  std::vector<std::string> names;
  for (const ScenarioSpec& spec : *specs) names.push_back(spec.name());
  std::vector<std::string> expected;
  for (const char* protocol :
       {"push", "push-pull", "visit-exchange", "meet-exchange"}) {
    for (const char* size : {"2048", "8192", "32768"}) {
      std::string compact = size == std::string("2048")    ? "2k"
                            : size == std::string("8192") ? "8k"
                                                          : "32k";
      expected.push_back("star(leaves=" + std::string(size) + ") " +
                         protocol + " source=1 label=" + protocol + "/" +
                         compact);
    }
  }
  EXPECT_EQ(names, expected);
}

TEST(SweepExpansion, SweptLabelGetsNoSelfSuffix) {
  const auto names = expanded_names("complete(n=16) push label={a,b}");
  EXPECT_EQ(names, (std::vector<std::string>{"complete(n=16) push label=a",
                                             "complete(n=16) push label=b"}));
}

TEST(SweepExpansion, DottedLabelsAreNotRanges) {
  // The label is free text: "run1..2" was a legal label before sweeps
  // existed and must stay one (ranges only apply to numeric keys).
  const auto names =
      expanded_names("star(leaves=8192) push label=run1..2");
  EXPECT_EQ(names, (std::vector<std::string>{
                       "star(leaves=8192) push label=run1..2"}));
}

TEST(SweepExpansion, RejectsBadSweepsWithReasons) {
  std::string error;
  EXPECT_FALSE(
      expand_scenario_line("star(leaves=32k..2k) push", &error));
  EXPECT_NE(error.find("inverted"), std::string::npos);
  EXPECT_FALSE(expand_scenario_line("star(leaves={}) push", &error));
  // Substituted values still face the scalar parser: a non-numeric item
  // in a numeric key fails with the ordinary diagnostic.
  EXPECT_FALSE(expand_scenario_line("star(leaves={8,x}) push", &error));
  EXPECT_NE(error.find("bad value"), std::string::npos);
  // A cross product past the cap is rejected, not materialized.
  EXPECT_FALSE(expand_scenario_line(
      "complete(n=1..100:step=1) push trials=1..100:step=1", &error));
  EXPECT_NE(error.find("cross product"), std::string::npos);
}

// ---- Whole-file validation --------------------------------------------

TEST(ValidateScenarios, ChecksEveryLineWithoutRunningTrials) {
  const auto good = ScenarioSpec::parse("complete(n=16) push trials=3");
  const auto bad = ScenarioSpec::parse("complete(n=16) push source=99");
  ASSERT_TRUE(good);
  ASSERT_TRUE(bad);
  std::string error;
  EXPECT_TRUE(validate_scenarios({*good}, &error)) << error;
  // The bad line is caught even at the end of the file — the CLI relies
  // on this to fail before truncating an existing --csv results file.
  EXPECT_FALSE(validate_scenarios({*good, *bad}, &error));
  EXPECT_NE(error.find("source=99"), std::string::npos);
}

TEST(PreparedRun, MatchesRunScenariosAndDrawsNoGraphDuringTheRun) {
  // One file mixing every kind of preparation: a random non-fresh draw
  // kept for the trials, a fresh=on line redrawn per trial, a lazy
  // deterministic line and a file: graph.
  const fs::path dir = fs::temp_directory_path() /
                       ("rumor_prepared_run_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string edges = (dir / "path4.edges").string();
  std::ofstream(edges) << "0 1\n1 2\n2 3\n";
  std::istringstream in(
      "random_regular(n=64,d=4) push trials=6 seed=3\n"
      "random_regular(n=64,d=4) visit-exchange trials=4 fresh=on\n"
      "star(leaves=32) push-pull source=1 trials=5\n"
      "file:" + edges + " push trials=5\n");
  std::string error;
  const auto specs = parse_scenario_stream(in, &error);
  ASSERT_TRUE(specs) << error;
  auto prepared = prepare_scenarios(*specs, &error);
  ASSERT_TRUE(prepared) << error;
  const auto results = run_prepared(std::move(*prepared), &error);
  ASSERT_TRUE(results) << error;
  const auto reference = run_scenarios(*specs, &error);
  ASSERT_TRUE(reference) << error;
  std::ostringstream once, twice;
  write_scenario_csv(once, *results);
  write_scenario_csv(twice, *reference);
  EXPECT_EQ(once.str(), twice.str());

  // The random non-fresh line's trials run on the graph preparation drew.
  // Graph::uid() counts every graph the process builds, so graphs built
  // just before and just after its run have consecutive uids.
  auto random_line = prepare_scenarios({specs->front()}, &error);
  ASSERT_TRUE(random_line) << error;
  const std::uint64_t before = gen::cycle(4).uid();
  EXPECT_TRUE(run_prepared(std::move(*random_line), &error)) << error;
  EXPECT_EQ(gen::cycle(4).uid(), before + 1);

  // One draw per (graph, seed). Two non-fresh lines naming one key hold
  // copies of one graph; a line with another seed holds its own; a
  // fresh=on line whose key is already drawn reads its sizes from that
  // draw. These graphs are connected at the first draw, so each draw
  // builds one graph and preparing the file uses up one uid per key.
  std::istringstream shared_in(
      "random_regular(n=64,d=4) push trials=2 seed=3\n"
      "random_regular(n=64,d=4) push-pull trials=2 seed=3\n"
      "random_regular(n=64,d=4) push trials=2 seed=4\n"
      "random_regular(n=64,d=4) visit-exchange trials=2 seed=3 fresh=on\n");
  const auto shared_specs = parse_scenario_stream(shared_in, &error);
  ASSERT_TRUE(shared_specs) << error;
  const std::uint64_t first = gen::cycle(4).uid();
  const auto shared = prepare_scenarios(*shared_specs, &error);
  ASSERT_TRUE(shared) << error;
  EXPECT_EQ(gen::cycle(4).uid(), first + 2 + 1);
  const std::vector<PreparedScenario>& graphs = shared->prepared;
  ASSERT_TRUE(graphs[0].graph && graphs[1].graph && graphs[2].graph);
  EXPECT_EQ(graphs[0].graph->uid(), graphs[1].graph->uid());
  EXPECT_NE(graphs[0].graph->uid(), graphs[2].graph->uid());
  EXPECT_FALSE(graphs[3].graph);
  EXPECT_EQ(shared->results[3].n, 64u);
  EXPECT_EQ(shared->results[3].edges, 128u);
  // The fresh line alone draws once; after the non-fresh line with its
  // key, it draws nothing.
  const std::uint64_t fresh_before = gen::cycle(4).uid();
  ASSERT_TRUE(validate_scenarios({(*shared_specs)[3]}, &error)) << error;
  EXPECT_EQ(gen::cycle(4).uid(), fresh_before + 1 + 1);
  const std::uint64_t pair_before = gen::cycle(4).uid();
  ASSERT_TRUE(validate_scenarios({(*shared_specs)[0], (*shared_specs)[3]},
                                 &error))
      << error;
  EXPECT_EQ(gen::cycle(4).uid(), pair_before + 1 + 1);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---- Graph family signatures (rumor_run --list) ------------------------

TEST(GraphFamilySignatures, ComeFromTheGrammarTable) {
  const auto signatures = graph_family_signatures();
  ASSERT_EQ(signatures.size(), graph_family_names().size());
  // Spot-check one family per parameter shape; the table is the single
  // source of truth, so these only drift if the grammar itself does.
  EXPECT_NE(std::find(signatures.begin(), signatures.end(), "star(leaves)"),
            signatures.end());
  EXPECT_NE(std::find(signatures.begin(), signatures.end(),
                      "grid(rows,cols)"),
            signatures.end());
  EXPECT_NE(std::find(signatures.begin(), signatures.end(),
                      "erdos_renyi(n,p)"),
            signatures.end());
  // Every signature's head parses as a known family name.
  for (const std::string& signature : signatures) {
    const std::string head = signature.substr(0, signature.find('('));
    const auto names = graph_family_names();
    EXPECT_NE(std::find(names.begin(), names.end(), head), names.end())
        << signature;
  }
}

// ---- Cross-scenario scheduler -----------------------------------------

TEST(TrialScheduler, MatchesPerScenarioPathAndIsWorkerCountInvariant) {
  Rng rng(3);
  const Graph star = gen::star(96);
  const Graph circ = gen::circulant(64, 2);
  const ProtocolSpec push_spec = default_spec(Protocol::push);
  const ProtocolSpec visit_spec = default_spec(Protocol::visit_exchange);
  const GraphSpec fresh_spec{Family::random_regular, 48, 4};

  constexpr std::uint64_t kSeed = 20260730ULL;
  auto make_batches = [&](std::vector<TrialSet>& sets) {
    sets.assign(3, TrialSet{});
    std::vector<TrialBatch> batches(3);
    batches[0] = TrialBatch{.graph = &star,
                            .protocol = &push_spec,
                            .source = 1,
                            .trials = 7,
                            .master_seed = kSeed,
                            .out = &sets[0]};
    batches[1] = TrialBatch{.graph = &circ,
                            .protocol = &visit_spec,
                            .source = 0,
                            .trials = 5,
                            .master_seed = kSeed + 1,
                            .out = &sets[1]};
    batches[2] = TrialBatch{.fresh_spec = &fresh_spec,
                            .protocol = &push_spec,
                            .source = 0,
                            .trials = 4,
                            .master_seed = kSeed + 2,
                            .out = &sets[2]};
    return batches;
  };

  // The pre-refactor per-scenario path: one runner call per scenario.
  const TrialSet direct0 = run_trials(star, push_spec, 1, 7, kSeed);
  const TrialSet direct1 = run_trials(circ, visit_spec, 0, 5, kSeed + 1);
  const TrialSet direct2 =
      run_trials_fresh_graph(fresh_spec, push_spec, 0, 4, kSeed + 2);

  // The global queue on pools of 1 and 4 workers.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    std::vector<TrialSet> sets;
    const auto batches = make_batches(sets);
    run_trial_batches(batches, {}, &pool);
    EXPECT_EQ(sets[0].rounds, direct0.rounds) << workers << " workers";
    EXPECT_EQ(sets[0].agent_rounds, direct0.agent_rounds);
    EXPECT_EQ(sets[0].incomplete, direct0.incomplete);
    EXPECT_EQ(sets[1].rounds, direct1.rounds) << workers << " workers";
    EXPECT_EQ(sets[2].rounds, direct2.rounds) << workers << " workers";
  }

  // And the per-scenario path itself still equals a serial re-derivation.
  for (std::size_t i = 0; i < 7; ++i) {
    TrialArena fresh_arena;
    const TrialResult serial =
        run_protocol(star, push_spec, 1, derive_seed(kSeed, i), &fresh_arena);
    EXPECT_EQ(direct0.rounds[i], serial.rounds) << "trial " << i;
  }
}

TEST(TrialScheduler, CompletionCallbacksArriveInBatchOrder) {
  Rng rng(4);
  // Reverse-sorted durations: the LAST batch is the quickest, so without
  // ordering enforcement it would complete (and emit) first on any pool.
  const Graph big = gen::star(512);
  const Graph small = gen::complete(16);
  const ProtocolSpec push_spec = default_spec(Protocol::push);
  std::vector<TrialSet> sets(3);
  std::vector<TrialBatch> batches(3);
  batches[0] = TrialBatch{.graph = &big,
                          .protocol = &push_spec,
                          .source = 1,
                          .trials = 6,
                          .master_seed = 11,
                          .out = &sets[0]};
  batches[1] = TrialBatch{.graph = &small,
                          .protocol = &push_spec,
                          .source = 0,
                          .trials = 6,
                          .master_seed = 12,
                          .out = &sets[1]};
  batches[2] = TrialBatch{.graph = &small,
                          .protocol = &push_spec,
                          .source = 0,
                          .trials = 2,
                          .master_seed = 13,
                          .out = &sets[2]};
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    std::vector<std::size_t> order;
    run_trial_batches(
        batches,
        [&](std::size_t b) {
          order.push_back(b);
          // Results for every batch up to b are final at emission time.
          for (std::size_t j = 0; j <= b; ++j) {
            EXPECT_EQ(sets[j].rounds.size(), batches[j].trials);
            for (double r : sets[j].rounds) EXPECT_GT(r, 0.0);
          }
        },
        &pool);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}))
        << workers << " workers";
  }
}

TEST(TrialScheduler, RunScenariosStreamsResultsInFileOrder) {
  std::istringstream in(
      "star(leaves=128..256) push source=1 trials=3 label=p\n"
      "complete(n=32) visit-exchange trials=3 label=v\n");
  std::string error;
  const auto specs = parse_scenario_stream(in, &error);
  ASSERT_TRUE(specs) << error;
  ASSERT_EQ(specs->size(), 3u);  // 2-point sweep + 1 scalar line
  std::vector<std::size_t> seen;
  ScenarioRunOptions options;
  options.on_result = [&](const ScenarioResult& r, std::size_t index) {
    seen.push_back(index);
    EXPECT_EQ(r.set.rounds.size(), 3u);
  };
  const auto results = run_scenarios(*specs, &error, options);
  ASSERT_TRUE(results) << error;
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ((*results)[0].spec.label, "p/128");
  EXPECT_EQ((*results)[1].spec.label, "p/256");
  EXPECT_EQ((*results)[2].spec.label, "v");
  // The streaming report emits one aligned row per scenario plus header.
  std::ostringstream table_out;
  ScenarioTableStream table(*specs, table_out);
  for (const ScenarioResult& r : *results) table.row(r);
  const std::string table_text = table_out.str();
  EXPECT_NE(table_text.find("p/128"), std::string::npos);
  EXPECT_NE(table_text.find("p/256"), std::string::npos);
  // Streaming CSV matches the batch writer byte for byte.
  std::ostringstream streamed, batch;
  ScenarioCsvStream csv(streamed);
  for (const ScenarioResult& r : *results) csv.row(r);
  write_scenario_csv(batch, *results);
  EXPECT_EQ(streamed.str(), batch.str());
}

TEST(TrialScheduler, QueueCountersAreConsistentAtEveryObservationAndAtDrain) {
  const Graph g = gen::complete(64);
  const ProtocolSpec push_spec = default_spec(Protocol::push);
  std::vector<TrialSet> sets(2);
  std::vector<TrialBatch> batches(2);
  batches[0] = TrialBatch{.graph = &g,
                          .protocol = &push_spec,
                          .source = 0,
                          .trials = 9,
                          .master_seed = 21,
                          .out = &sets[0]};
  batches[1] = TrialBatch{.graph = &g,
                          .protocol = &push_spec,
                          .source = 0,
                          .trials = 7,
                          .master_seed = 22,
                          .out = &sets[1]};
  ThreadPool pool(4);
  TrialCounters counters;
  TrialRunOptions options;
  options.pool = &pool;
  options.counters = &counters;
  // Snapshot on every trial completion, concurrently with the claims: the
  // invariant done <= claimed <= total must hold at every observation.
  options.on_trial_done = [&](std::size_t, std::size_t) {
    const TrialQueueSnapshot snap = counters.snapshot();
    EXPECT_LE(snap.trials_done, snap.trials_claimed);
    EXPECT_LE(snap.trials_claimed, snap.trials_total);
    EXPECT_LE(snap.batches_done, snap.batches_total);
    EXPECT_EQ(snap.trials_total, 16u);
  };
  const TrialRunOutcome outcome = run_trial_batches(batches, options);
  EXPECT_FALSE(outcome.stopped);
  EXPECT_EQ(outcome.trials_run, 16u);
  // Pinned drain state: everything claimed, everything done, every batch
  // retired — the exact numbers --progress and serve STATS report.
  const TrialQueueSnapshot end = counters.snapshot();
  EXPECT_EQ(end.trials_total, 16u);
  EXPECT_EQ(end.trials_claimed, 16u);
  EXPECT_EQ(end.trials_done, 16u);
  EXPECT_EQ(end.in_flight(), 0u);
  EXPECT_EQ(end.queued(), 0u);
  EXPECT_EQ(end.batches_total, 2u);
  EXPECT_EQ(end.batches_done, 2u);
}

TEST(TrialScheduler, StopFlagPreventsNewClaimsAndReportsStopped) {
  const Graph g = gen::complete(64);
  const ProtocolSpec push_spec = default_spec(Protocol::push);
  std::vector<TrialSet> sets(1);
  std::vector<TrialBatch> batches(1);
  batches[0] = TrialBatch{.graph = &g,
                          .protocol = &push_spec,
                          .source = 0,
                          .trials = 40,
                          .master_seed = 31,
                          .out = &sets[0]};
  // Pre-set stop: nothing runs, nothing is emitted.
  {
    ThreadPool pool(2);
    std::atomic<bool> stop{true};
    bool emitted = false;
    TrialRunOptions options;
    options.pool = &pool;
    options.stop = &stop;
    options.on_batch_done = [&](std::size_t) { emitted = true; };
    const TrialRunOutcome outcome = run_trial_batches(batches, options);
    EXPECT_TRUE(outcome.stopped);
    EXPECT_EQ(outcome.trials_run, 0u);
    EXPECT_FALSE(emitted);
  }
  // Stop flipped mid-run (from the per-trial hook, like a signal handler
  // would): the run ends early but every recorded trial stays recorded.
  {
    ThreadPool pool(1);
    std::atomic<bool> stop{false};
    TrialRunOptions options;
    options.pool = &pool;
    options.stop = &stop;
    options.on_trial_done = [&](std::size_t, std::size_t) {
      stop.store(true);
    };
    const TrialRunOutcome outcome = run_trial_batches(batches, options);
    EXPECT_TRUE(outcome.stopped);
    EXPECT_GE(outcome.trials_run, 1u);
    EXPECT_LT(outcome.trials_run, 40u);
  }
  // run_scenarios surfaces the stop as a typed "interrupted" error — the
  // CLI's SIGINT path (exit 1 + "# truncated" CSV trailer) keys off it.
  {
    std::istringstream in("complete(n=64) push trials=8\n");
    std::string error;
    const auto specs = parse_scenario_stream(in, &error);
    ASSERT_TRUE(specs) << error;
    std::atomic<bool> stop{true};
    ScenarioRunOptions options;
    options.stop = &stop;
    const auto results = run_scenarios(*specs, &error, options);
    EXPECT_FALSE(results);
    EXPECT_NE(error.find("interrupted"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace rumor
