// Scenario execution: file parsing, the trial runner through the registry
// path (determinism as a pure function of (master seed, trial index) for
// every registered simulator), widened TrialSet payloads, source
// validation, and the Fig. 1(a) star separation end to end from spec text.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/registry.hpp"
#include "experiments/scenario.hpp"
#include "graph/generators.hpp"
#include "support/thread_pool.hpp"
#include "support/trial_arena.hpp"

namespace rumor {
namespace {

// ---- Scenario files ---------------------------------------------------

TEST(ScenarioFile, ParsesLinesSkipsCommentsAndBlanks) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "complete(n=32) push trials=4\n"
      "   \t \n"
      "star(leaves=64) visit-exchange trials=4 source=1  # trailing note\n");
  std::string error;
  const auto specs = parse_scenario_stream(in, &error);
  ASSERT_TRUE(specs) << error;
  ASSERT_EQ(specs->size(), 2u);
  EXPECT_EQ((*specs)[0].name(), "complete(n=32) push trials=4");
  EXPECT_EQ((*specs)[1].protocol.protocol, Protocol::visit_exchange);
  EXPECT_EQ((*specs)[1].plan.source, 1u);
}

TEST(ScenarioFile, ReportsErrorsWithLineNumbers) {
  std::istringstream in(
      "complete(n=32) push\n"
      "complete(n=32) teleport\n");
  std::string error;
  EXPECT_FALSE(parse_scenario_stream(in, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_NE(error.find("teleport"), std::string::npos);
}

// ---- Registry-path determinism (satellite) ----------------------------
//
// The trial runner promises that sample i depends only on (master seed, i)
// — never on worker count or scheduling. Asserted here through the new
// registry path for EVERY registered simulator: the pooled samples must
// equal a serial re-derivation with a private arena.

TEST(RegistryTrials, SamplesAreAPureFunctionOfMasterSeedAndIndex) {
  Rng gen_rng(3);
  // Circulant with k=2 contains triangles: every protocol terminates
  // (meet-exchange's auto laziness resolves to non-lazy, still aperiodic).
  const Graph g = gen::circulant(48, 2);
  constexpr std::size_t kTrials = 12;
  constexpr std::uint64_t kMaster = 20260729ULL;
  for (const SimulatorEntry& entry : SimulatorRegistry::instance().all()) {
    const ProtocolSpec spec = default_spec(entry.id);
    const TrialSet pooled = run_trials(g, spec, 0, kTrials, kMaster);
    ASSERT_EQ(pooled.rounds.size(), kTrials);
    for (std::size_t i = 0; i < kTrials; ++i) {
      TrialArena fresh_arena;
      const TrialResult serial = run_protocol(
          g, spec, 0, derive_seed(kMaster, i), &fresh_arena);
      EXPECT_EQ(pooled.rounds[i], serial.rounds)
          << entry.name << " trial " << i;
      EXPECT_EQ(pooled.agent_rounds[i], serial.agent_rounds)
          << entry.name << " trial " << i;
    }
    // And the pooled run itself is reproducible.
    const TrialSet again = run_trials(g, spec, 0, kTrials, kMaster);
    EXPECT_EQ(pooled.rounds, again.rounds) << entry.name;
    EXPECT_EQ(pooled.incomplete, again.incomplete) << entry.name;
  }
}

// Same promise under heterogeneous transmission: the skip-sampling /
// batched-draw paths pull from counter-based Philox streams reseeded per
// trial, so sample i must still be a pure function of (master seed, i) for
// every simulator that accepts a contact rule.
TEST(RegistryTrials, HeterogeneousSamplesAreAPureFunctionOfSeedAndIndex) {
  const Graph g = gen::circulant(48, 2);
  constexpr std::size_t kTrials = 8;
  constexpr std::uint64_t kMaster = 424242ULL;
  for (const SimulatorEntry& entry : SimulatorRegistry::instance().all()) {
    const auto spec =
        ProtocolSpec::parse(std::string(entry.name) + "(tp=deg^-0.5)");
    if (!spec) continue;  // simulator takes no contact rule
    const TrialSet pooled = run_trials(g, *spec, 0, kTrials, kMaster);
    ASSERT_EQ(pooled.rounds.size(), kTrials);
    for (std::size_t i = 0; i < kTrials; ++i) {
      TrialArena fresh_arena;
      const TrialResult serial =
          run_protocol(g, *spec, 0, derive_seed(kMaster, i), &fresh_arena);
      EXPECT_EQ(pooled.rounds[i], serial.rounds)
          << entry.name << " trial " << i;
      EXPECT_EQ(pooled.agent_rounds[i], serial.agent_rounds)
          << entry.name << " trial " << i;
    }
    const TrialSet again = run_trials(g, *spec, 0, kTrials, kMaster);
    EXPECT_EQ(pooled.rounds, again.rounds) << entry.name;
  }
}

TEST(RegistryTrials, FreshGraphSamplesAreAPureFunctionOfSeedAndIndex) {
  const GraphSpec gspec{Family::random_regular, 64, 6};
  const ProtocolSpec spec = default_spec(Protocol::push_pull);
  constexpr std::uint64_t kMaster = 99;
  const TrialSet pooled = run_trials_fresh_graph(gspec, spec, 0, 8, kMaster);
  for (std::size_t i = 0; i < 8; ++i) {
    Rng graph_rng(derive_seed(kMaster ^ kGraphSeedSalt, i));
    const Graph g = gspec.make(graph_rng);
    TrialArena fresh_arena;
    const TrialResult serial =
        run_protocol(g, spec, 0, derive_seed(kMaster, i), &fresh_arena);
    EXPECT_EQ(pooled.rounds[i], serial.rounds) << "trial " << i;
  }
}

// ---- Widened TrialSet -------------------------------------------------

TEST(TrialSetPayload, CarriesAgentRoundsAndOptionalCurves) {
  Rng rng(5);
  const Graph g = gen::circulant(96, 3);
  ProtocolSpec spec = default_spec(Protocol::visit_exchange);
  const TrialSet plain = run_trials(g, spec, 0, 6, 7);
  ASSERT_EQ(plain.agent_rounds.size(), 6u);
  EXPECT_TRUE(plain.informed_curves.empty());  // not traced
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GT(plain.agent_rounds[i], 0.0);
    EXPECT_LE(plain.agent_rounds[i], plain.rounds[i]);
  }
  EXPECT_GT(plain.agent_summary().mean, 0.0);

  spec.walk().trace.informed_curve = true;
  const TrialSet traced = run_trials(g, spec, 0, 6, 7);
  ASSERT_EQ(traced.informed_curves.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_EQ(traced.informed_curves[i].size(),
              static_cast<std::size_t>(traced.rounds[i]) + 1);
    EXPECT_EQ(traced.informed_curves[i].back(), g.num_vertices());
  }
  // Tracing must not perturb the sampled trajectory.
  EXPECT_EQ(traced.rounds, plain.rounds);
}

// ---- Source validation (satellite) ------------------------------------

TEST(TrialSourceValidation, RunScenarioReportsOutOfRangeSourceGracefully) {
  // Scenario files are user input: a bad source must come back as an
  // error string (the CLI's "line N" contract), not a process abort.
  const auto spec = ScenarioSpec::parse("complete(n=16) push source=99");
  ASSERT_TRUE(spec);
  std::string error;
  EXPECT_FALSE(run_scenarios({*spec}, &error));
  EXPECT_NE(error.find("source=99"), std::string::npos);
  EXPECT_NE(error.find("n=16"), std::string::npos);

  // The placement anchor is user input through the same spec grammar.
  const auto anchored = ScenarioSpec::parse(
      "complete(n=16) visit-exchange(placement=at_vertex,anchor=99)");
  ASSERT_TRUE(anchored);
  EXPECT_FALSE(run_scenarios({*anchored}, &error));
  EXPECT_NE(error.find("anchor=99"), std::string::npos);
}

TEST(TrialSourceValidation, GraphSpecsRequireEveryDeclaredParameter) {
  // A missing second parameter must fail at parse time, not abort later
  // inside the generator with a defaulted-to-zero size.
  std::string error;
  EXPECT_FALSE(GraphSpec::parse("grid(rows=3)", &error));
  EXPECT_NE(error.find("cols"), std::string::npos);
  EXPECT_FALSE(GraphSpec::parse("erdos_renyi(n=32)", &error));
  EXPECT_NE(error.find("p"), std::string::npos);
  EXPECT_FALSE(GraphSpec::parse("random_regular(n=64)", &error));
}

TEST(TrialSourceValidation, FixedGraphRejectsOutOfRangeSource) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(8);
  const Graph g = gen::complete(16);
  const ProtocolSpec spec = default_spec(Protocol::push);
  EXPECT_DEATH((void)run_trials(g, spec, 16, 4, 1), "precondition");
}

TEST(TrialSourceValidation, FreshGraphValidatesSourceAgainstEveryDraw) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Every draw has exactly 64 vertices; source 64 is out of range in all
  // of them and must abort instead of indexing out of bounds.
  const GraphSpec gspec{Family::random_regular, 64, 6};
  const ProtocolSpec spec = default_spec(Protocol::push);
  EXPECT_DEATH((void)run_trials_fresh_graph(gspec, spec, 64, 4, 1),
               "precondition");
}

// ---- End-to-end: Fig. 1(a) from spec text -----------------------------

TEST(ScenarioEndToEnd, Fig1aStarSeparationFromSpecText) {
  std::istringstream in(
      "# star family, leaf source (Fig. 1a at reduced size)\n"
      "star(leaves=1024) push           source=1 trials=8 label=push\n"
      "star(leaves=1024) push-pull      source=1 trials=8 label=ppull\n"
      "star(leaves=1024) visit-exchange source=1 trials=8 label=visitx\n"
      "star(leaves=1024) meet-exchange  source=1 trials=8 label=meetx\n");
  std::string error;
  const auto specs = parse_scenario_stream(in, &error);
  ASSERT_TRUE(specs) << error;
  const auto run = run_scenarios(*specs, &error);
  ASSERT_TRUE(run) << error;
  const std::vector<ScenarioResult>& results = *run;
  ASSERT_EQ(results.size(), 4u);
  const double push = results[0].set.summary().mean;
  const double ppull = results[1].set.summary().mean;
  const double visitx = results[2].set.summary().mean;
  const double meetx = results[3].set.summary().mean;
  for (const ScenarioResult& r : results) {
    EXPECT_EQ(r.set.incomplete, 0u) << r.spec.display_label();
    EXPECT_EQ(r.n, 1025u);
  }
  // Lemma 2: push pays Omega(n log n), push-pull finishes in 2, the walk
  // protocols are logarithmic. 10x is a very loose floor for n = 1024
  // (measured separation is ~100x) — this guards the separation, not the
  // constant.
  EXPECT_LE(ppull, 2.0);
  EXPECT_GT(push, 10.0 * visitx);
  EXPECT_GT(push, 10.0 * meetx);

  // The report renders one row per scenario.
  const std::string table = scenario_table(results);
  EXPECT_NE(table.find("push"), std::string::npos);
  EXPECT_NE(table.find("visitx"), std::string::npos);
  std::ostringstream csv;
  write_scenario_csv(csv, results);
  EXPECT_NE(csv.str().find("label,graph,protocol"), std::string::npos);
  EXPECT_NE(csv.str().find("meetx"), std::string::npos);
}

}  // namespace
}  // namespace rumor
