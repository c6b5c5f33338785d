// Transmission-model layer tests: the tp=1/no-intervention fast path
// reproduces the pre-transmission trial samples byte-identically for every
// registered simulator (pinned golden samples), the grammar keys round-trip
// and reject what the simulators cannot honor, heterogeneous probabilities
// and interventions behave as specified, the longest-first scheduler order
// changes wall-clock only, and a throwing trial surfaces as a named
// scenario failure instead of a bare abort.
#include <gtest/gtest.h>

#include <mutex>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/registry.hpp"
#include "core/transmission.hpp"
#include "experiments/scenario.hpp"
#include "graph/generators.hpp"
#include "support/spec_text.hpp"
#include "support/thread_pool.hpp"
#include "support/trial_arena.hpp"

namespace rumor {
namespace {

// ---- tp=1 equivalence vs. seed-state results (acceptance criterion) ----
//
// Captured from the pre-transmission build (PR 4 head) on circulant(48, 2),
// source 0, 6 trials, master seed 20260730: run_trials samples for every
// registered simulator's default spec. The default transmission model is
// trivial, so the refactored contact sites must reproduce these exactly —
// any extra RNG draw or reordered branch shows up as a changed sample.

struct GoldenSamples {
  const char* name;
  std::vector<double> rounds;
  std::vector<double> agent_rounds;
  std::size_t incomplete = 0;
};

const std::vector<GoldenSamples>& golden_samples() {
  static const std::vector<GoldenSamples> golden = {
      {"push", {30, 28, 27, 29, 29, 24}, {30, 28, 27, 29, 29, 24}},
      {"push-pull", {17, 18, 19, 19, 20, 23}, {17, 18, 19, 19, 20, 23}},
      {"visit-exchange",
       {30, 31, 31, 34, 26, 34},
       {27, 29, 30, 26, 22, 26}},
      {"meet-exchange", {32, 36, 30, 26, 35, 36}, {32, 36, 30, 26, 35, 36}},
      {"hybrid", {15, 17, 19, 15, 16, 17}, {15, 17, 19, 15, 16, 17}},
      {"frog", {32, 27, 20, 23, 25, 19}, {32, 27, 20, 23, 25, 19}},
      {"dynamic-agent", {30, 31, 31, 34, 26, 34}, {30, 31, 31, 34, 26, 34}},
      {"multi-push-pull", {18, 19, 21, 21, 19, 19}, {0, 0, 0, 0, 0, 0}},
      {"multi-visit-exchange",
       {30, 31, 31, 34, 26, 34},
       {0, 0, 0, 0, 0, 0}},
      {"async",
       {12.75, 13.3125, 15.104166666666666, 10.125, 12.166666666666666,
        18.770833333333332},
       {0, 0, 0, 0, 0, 0}},
  };
  return golden;
}

TEST(TransmissionEquivalence, DefaultSpecsReproduceSeedStateSamples) {
  const Graph g = gen::circulant(48, 2);
  for (const GoldenSamples& golden : golden_samples()) {
    const SimulatorEntry* entry =
        SimulatorRegistry::instance().find(golden.name);
    ASSERT_NE(entry, nullptr) << golden.name;
    const TrialSet set =
        run_trials(g, default_spec(entry->id), 0, 6, 20260730ULL);
    EXPECT_EQ(set.rounds, golden.rounds) << golden.name;
    EXPECT_EQ(set.agent_rounds, golden.agent_rounds) << golden.name;
    EXPECT_EQ(set.incomplete, 0u) << golden.name;
  }
}

TEST(TransmissionEquivalence, ExplicitTpOneIsTheTrivialModel) {
  // `tp=1` parses, round-trips away (it IS the default), and produces the
  // same samples — the grammar cannot accidentally fork the fast path.
  const Graph g = gen::circulant(48, 2);
  for (const GoldenSamples& golden : golden_samples()) {
    const std::string text = std::string(golden.name) + "(tp=1)";
    const auto spec = ProtocolSpec::parse(text);
    ASSERT_TRUE(spec) << text;
    EXPECT_EQ(spec->name(), golden.name);  // default emits no keys
    const TrialSet set = run_trials(g, *spec, 0, 6, 20260730ULL);
    EXPECT_EQ(set.rounds, golden.rounds) << text;
  }
}

// ---- Heterogeneous golden samples -------------------------------------
//
// Captured from the counter-RNG build (this PR's head): the skip-sampling
// and batched-draw paths pull their randomness from per-trial Philox
// streams, so these samples are a cross-platform contract — any change to
// the stream addressing, the gap computation (fast_log2f), or the draw
// order re-pins them. Two regimes are covered: a constant sub-one field on
// the regular circulant (the geometric skip path) and a degree-scaled
// field on the skewed tree (the batched per-vertex path).

const std::vector<GoldenSamples>& het_skip_golden_samples() {
  // circulant(48, 2): degree 4 everywhere, so tp=0.5 is a constant field
  // and every simulator takes the skip-sampling mode where it applies.
  static const std::vector<GoldenSamples> golden = {
      {"push(tp=0.5)", {60, 55, 40, 52, 59, 60}, {60, 55, 40, 52, 59, 60}},
      {"push-pull(tp=0.5)",
       {29, 28, 35, 27, 29, 37},
       {29, 28, 35, 27, 29, 37}},
      {"visit-exchange(tp=0.5)",
       {34, 39, 35, 39, 43, 44},
       {31, 37, 35, 36, 43, 43}},
      {"meet-exchange(tp=0.5)",
       {42, 48, 54, 38, 38, 45},
       {42, 48, 54, 38, 38, 45}},
      {"hybrid(tp=0.5)", {20, 20, 28, 21, 23, 21}, {20, 20, 28, 21, 23, 21}},
      {"frog(tp=0.5)", {36, 37, 36, 28, 28, 38}, {36, 37, 36, 28, 28, 38}},
      {"dynamic-agent(tp=0.5)",
       {39, 41, 46, 40, 43, 43},
       {39, 41, 46, 40, 43, 43}},
      {"multi-push-pull(tp=0.5)",
       {30, 30, 37, 29, 34, 38},
       {0, 0, 0, 0, 0, 0}},
      {"multi-visit-exchange(tp=0.5)",
       {40, 41, 36, 39, 46, 45},
       {0, 0, 0, 0, 0, 0}},
      {"async(tp=0.5)",
       {21.1875, 29.479166666666668, 26.020833333333332, 22.666666666666668,
        22.958333333333332, 33.083333333333336},
       {0, 0, 0, 0, 0, 0}},
  };
  return golden;
}

const std::vector<GoldenSamples>& het_batched_golden_samples() {
  // heavy_binary_tree(31): mixed degrees, so tp=deg^-0.5 is a genuinely
  // non-constant field and the contact sites draw per-entry.
  static const std::vector<GoldenSamples> golden = {
      {"push(tp=deg^-0.5)", {25, 40, 27, 23, 22, 37}, {25, 40, 27, 23, 22, 37}},
      {"push-pull(tp=deg^-0.5)",
       {16, 15, 18, 14, 13, 17},
       {16, 15, 18, 14, 13, 17}},
      {"visit-exchange(tp=deg^-0.5)",
       {59, 37, 34, 29, 72, 40},
       {49, 36, 30, 29, 67, 37}},
      {"meet-exchange(tp=deg^-0.5)",
       {64, 47, 34, 42, 73, 46},
       {64, 47, 34, 42, 73, 46}},
      {"hybrid(tp=deg^-0.5)",
       {11, 13, 11, 12, 19, 14},
       {11, 13, 11, 12, 19, 14}},
      {"frog(tp=deg^-0.5)",
       {35, 27, 31, 19, 22, 71},
       {35, 27, 31, 19, 22, 71}},
      {"dynamic-agent(tp=deg^-0.5)",
       {61, 42, 47, 51, 73, 35},
       {61, 42, 47, 51, 73, 35}},
      {"multi-push-pull(tp=deg^-0.5)",
       {16, 13, 18, 16, 18, 16},
       {0, 0, 0, 0, 0, 0}},
      {"multi-visit-exchange(tp=deg^-0.5)",
       {51, 45, 39, 51, 59, 44},
       {0, 0, 0, 0, 0, 0}},
      {"async(tp=deg^-0.5)",
       {11.806451612903226, 10.193548387096774, 19.64516129032258,
        9.741935483870968, 14.96774193548387, 19.483870967741936},
       {0, 0, 0, 0, 0, 0}},
  };
  return golden;
}

void expect_golden_samples(const Graph& g,
                           const std::vector<GoldenSamples>& table) {
  for (const GoldenSamples& golden : table) {
    const auto spec = ProtocolSpec::parse(golden.name);
    ASSERT_TRUE(spec) << golden.name;
    const TrialSet set = run_trials(g, *spec, 0, 6, 20260730ULL);
    EXPECT_EQ(set.rounds, golden.rounds) << golden.name;
    EXPECT_EQ(set.agent_rounds, golden.agent_rounds) << golden.name;
    EXPECT_EQ(set.incomplete, golden.incomplete) << golden.name;
  }
}

TEST(TransmissionEquivalence, HeterogeneousSkipPathReproducesGoldenSamples) {
  expect_golden_samples(gen::circulant(48, 2), het_skip_golden_samples());
}

TEST(TransmissionEquivalence, HeterogeneousBatchedPathReproducesGoldenSamples) {
  expect_golden_samples(gen::heavy_binary_tree(31),
                        het_batched_golden_samples());
}

// ---- Sharded golden samples -------------------------------------------
//
// Every Sharded*.TrajectoryIndependentOfShardCount test compares a width
// with shards=1, so a change that moves all widths alike passes them.
// These samples pin the shards=1 trajectory itself (and, through those
// tests, every width): the same harness as above, for the five simulators
// with a sharded round, under the trivial model and a constant field on
// the circulant, a degree-scaled field on the skewed tree, plus one
// stifling and one blocking line.

const std::vector<GoldenSamples>& sharded_circulant_golden_samples() {
  static const std::vector<GoldenSamples> golden = {
      {"push(shards=1)", {29, 33, 33, 30, 27, 35}, {29, 33, 33, 30, 27, 35}},
      {"push-pull(shards=1)",
       {20, 18, 18, 18, 19, 19},
       {20, 18, 18, 18, 19, 19}},
      {"visit-exchange(shards=1)",
       {33, 27, 29, 37, 26, 31},
       {32, 26, 27, 35, 19, 20}},
      {"meet-exchange(shards=1)",
       {38, 35, 30, 42, 24, 26},
       {38, 35, 30, 42, 24, 26}},
      {"hybrid(shards=1)", {16, 16, 17, 14, 17, 17}, {16, 16, 17, 14, 17, 17}},
      {"push(shards=1,tp=0.5)",
       {61, 47, 51, 58, 54, 59},
       {61, 47, 51, 58, 54, 59}},
      {"push-pull(shards=1,tp=0.5)",
       {37, 34, 34, 29, 28, 38},
       {37, 34, 34, 29, 28, 38}},
      {"visit-exchange(shards=1,tp=0.5)",
       {38, 42, 45, 45, 44, 46},
       {38, 42, 35, 40, 44, 38}},
      {"meet-exchange(shards=1,tp=0.5)",
       {50, 51, 46, 47, 48, 39},
       {50, 51, 46, 47, 48, 39}},
      {"hybrid(shards=1,tp=0.5)",
       {30, 23, 25, 27, 23, 27},
       {30, 23, 25, 27, 23, 27}},
      {"hybrid(shards=1,stifle=3)",
       {16, 16, 17, 16, 17, 18},
       {16, 16, 17, 16, 17, 18}},
  };
  return golden;
}

const std::vector<GoldenSamples>& sharded_tree_golden_samples() {
  static const std::vector<GoldenSamples> golden = {
      {"push(shards=1,tp=deg^-0.5)",
       {34, 27, 32, 30, 32, 26},
       {34, 27, 32, 30, 32, 26}},
      {"push-pull(shards=1,tp=deg^-0.5)",
       {22, 14, 16, 17, 15, 18},
       {22, 14, 16, 17, 15, 18}},
      {"visit-exchange(shards=1,tp=deg^-0.5)",
       {48, 45, 28, 28, 25, 38},
       {38, 41, 28, 27, 25, 37}},
      {"meet-exchange(shards=1,tp=deg^-0.5)",
       {44, 51, 46, 40, 28, 49},
       {44, 51, 46, 40, 28, 49}},
      {"hybrid(shards=1,tp=deg^-0.5)",
       {18, 12, 10, 17, 13, 15},
       {18, 12, 10, 17, 13, 15}},
      // Every trial is contained: the blocked hubs cut the tree.
      {"push-pull(shards=1,block=0.1,block@t=3)",
       {7, 7, 6, 7, 8, 9},
       {7, 7, 6, 7, 8, 9},
       6},
  };
  return golden;
}

TEST(TransmissionEquivalence, ShardedEnginesReproduceGoldenSamples) {
  expect_golden_samples(gen::circulant(48, 2),
                        sharded_circulant_golden_samples());
  expect_golden_samples(gen::heavy_binary_tree(31),
                        sharded_tree_golden_samples());
}

// On a regular graph tp=deg^-0.5 materializes to the SAME constant field
// as the equivalent plain tp, so both spec texts must simulate the exact
// same trajectories (the mode pick is field-driven, not flag-driven).
TEST(TransmissionEquivalence, DegreeScaledConstantFieldMatchesPlainTp) {
  const Graph g = gen::circulant(48, 2);  // degree 4: deg^-0.5 == 0.5
  for (const char* name : {"push", "push-pull", "visit-exchange", "frog"}) {
    const auto plain = ProtocolSpec::parse(std::string(name) + "(tp=0.5)");
    const auto scaled =
        ProtocolSpec::parse(std::string(name) + "(tp=deg^-0.5)");
    ASSERT_TRUE(plain && scaled) << name;
    const TrialSet a = run_trials(g, *plain, 0, 6, 20260730ULL);
    const TrialSet b = run_trials(g, *scaled, 0, 6, 20260730ULL);
    EXPECT_EQ(a.rounds, b.rounds) << name;
    EXPECT_EQ(a.agent_rounds, b.agent_rounds) << name;
  }
}

TEST(TransmissionEquivalence, AllOnesGeneralFieldMatchesUniformTrajectory) {
  // tp=deg^0 builds a non-trivial model whose field is identically 1: the
  // General instantiation must then consume the RNG exactly like Uniform
  // (attempt() skips the draw at p = 1), reproducing the golden samples.
  const Graph g = gen::circulant(48, 2);
  for (const char* name : {"push", "push-pull", "visit-exchange", "frog"}) {
    const auto spec =
        ProtocolSpec::parse(std::string(name) + "(tp=deg^0)");
    ASSERT_TRUE(spec) << name;
    const SimulatorEntry* entry = SimulatorRegistry::instance().find(name);
    ASSERT_NE(entry, nullptr);
    const TrialSet general = run_trials(g, *spec, 0, 6, 20260730ULL);
    const TrialSet uniform =
        run_trials(g, default_spec(entry->id), 0, 6, 20260730ULL);
    EXPECT_EQ(general.rounds, uniform.rounds) << name;
  }
}

TEST(TransmissionEquivalence, HugeStifleWindowMatchesUniformTrajectory) {
  // A stifle window longer than any trial is behaviorally inert at tp=1:
  // same informs, same draws, same samples — but through the General path.
  // stifle=2^32-1 additionally guards the 64-bit age arithmetic (a uint32
  // sum would wrap and stifle everything instantly).
  const Graph g = gen::circulant(48, 2);
  const TrialSet uniform = run_trials(
      g, default_spec(Protocol::push), 0, 6, 20260730ULL);
  for (const char* text : {"push(stifle=100000)", "push(stifle=4294967295)"}) {
    const auto spec = ProtocolSpec::parse(text);
    ASSERT_TRUE(spec) << text;
    const TrialSet general = run_trials(g, *spec, 0, 6, 20260730ULL);
    EXPECT_EQ(general.rounds, uniform.rounds) << text;
    EXPECT_EQ(general.incomplete, 0u) << text;
  }
}

// ---- Grammar round-trip -----------------------------------------------

TEST(TransmissionGrammar, CanonicalTextRoundTrips) {
  // Each line is already in canonical key order: parse → name() is the
  // identity, and re-parsing reproduces the spec bit for bit.
  const std::vector<std::string> lines = {
      "push(tp=0.5)",
      "push(tp=deg^-0.5)",
      "push(stifle=3)",
      "push(max_rounds=9,tp=0.25,stifle=2,block=0.1,block@t=5)",
      "push-pull(tp=0.25,stifle=2,block=0.1,block@t=5)",
      "push-pull(tp=deg^-1,curve=on)",
      "visit-exchange(alpha=0.5,tp=deg^-1,stifle=4)",
      "meet-exchange(tp=0.5,block=0.2)",
      "hybrid(tp=deg^-0.5,block=0.25,block@t=3)",
      "frog(frogs=2,tp=0.5,stifle=6)",
      "dynamic-agent(churn=0.1,tp=0.5,stifle=3)",
      "multi-push-pull(rumors=3,tp=0.5)",
      "multi-visit-exchange(alpha=0.5,tp=0.5)",
      "async(tp=0.5)",
  };
  for (const std::string& line : lines) {
    std::string error;
    const auto spec = ProtocolSpec::parse(line, &error);
    ASSERT_TRUE(spec) << line << ": " << error;
    EXPECT_EQ(spec->name(), line);
    const auto reparsed = ProtocolSpec::parse(spec->name(), &error);
    ASSERT_TRUE(reparsed) << spec->name() << ": " << error;
    EXPECT_EQ(*reparsed, *spec) << line;
  }
}

TEST(TransmissionGrammar, RejectsWhatSimulatorsCannotHonor) {
  // Bad values, and intervention keys on simulators whose bookkeeping
  // cannot honor them (multi-rumor's packed masks, async's tick clock):
  // rejected at parse time, never silently ignored.
  for (const char* line : {
           "push(tp=0)", "push(tp=1.5)", "push(tp=-0.5)", "push(tp=deg^9)",
           "push(tp=deg^)", "push(block=1)", "push(block=-0.1)",
           "push(block@t=0)", "push(stifle=bad)",
           "multi-push-pull(stifle=3)", "multi-visit-exchange(block=0.1)",
           "async(stifle=2)", "async(block@t=4)",
       }) {
    EXPECT_FALSE(ProtocolSpec::parse(line)) << line;
  }
}

TEST(TransmissionGrammar, SweepsExpandOverTpAndStifle) {
  std::string error;
  const auto specs = expand_scenario_line(
      "complete(n=32) push(tp={0.25,0.5,1},stifle=1..4) trials=2 label=p",
      &error);
  ASSERT_TRUE(specs) << error;
  ASSERT_EQ(specs->size(), 9u);  // 3 tp values x 3 stifle points (1,2,4)
  EXPECT_EQ((*specs)[0].protocol.name(), "push(tp=0.25,stifle=1)");
  EXPECT_EQ((*specs)[0].label, "p/0.25/1");
  EXPECT_EQ((*specs)[8].protocol.name(), "push(stifle=4)");  // tp=1 default
  EXPECT_EQ((*specs)[8].label, "p/1/4");
}

// ---- Heterogeneous probabilities --------------------------------------

TEST(TransmissionBehavior, LowerTpSlowsBroadcastDeterministically) {
  const Graph g = gen::complete(64);
  const auto half = ProtocolSpec::parse("push(tp=0.5)");
  ASSERT_TRUE(half);
  const TrialSet fast =
      run_trials(g, default_spec(Protocol::push), 0, 12, 7);
  const TrialSet slow = run_trials(g, *half, 0, 12, 7);
  EXPECT_EQ(slow.incomplete, 0u);  // tp < 1 delays, never kills
  EXPECT_GT(slow.summary().mean, fast.summary().mean);
  // Determinism: heterogeneous samples are still a pure function of
  // (master seed, index).
  const TrialSet again = run_trials(g, *half, 0, 12, 7);
  EXPECT_EQ(slow.rounds, again.rounds);
}

TEST(TransmissionBehavior, HeterogeneousArenaAndOwnedTrialsAgree) {
  Rng gen_rng(5);
  const Graph g = gen::random_regular(64, 5, gen_rng);
  TrialArena arena;  // deliberately shared and dirty across specs
  for (const char* text :
       {"push(tp=0.5)", "push(tp=deg^-0.5,stifle=8)",
        "push-pull(tp=0.5,block=0.1,block@t=2)",
        "visit-exchange(tp=deg^-0.5)", "meet-exchange(tp=0.5,stifle=12)",
        "hybrid(tp=0.5)", "frog(frogs=2,tp=0.5)",
        "dynamic-agent(churn=0.05,tp=0.5)", "multi-push-pull(tp=0.5)",
        "multi-visit-exchange(tp=0.5)", "async(tp=0.5)"}) {
    const auto spec = ProtocolSpec::parse(text);
    ASSERT_TRUE(spec) << text;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const TrialResult lent = run_protocol(g, *spec, 0, seed, &arena);
      const TrialResult owned = run_protocol(g, *spec, 0, seed, nullptr);
      EXPECT_EQ(lent.rounds, owned.rounds) << text << " seed " << seed;
      EXPECT_EQ(lent.informed, owned.informed) << text << " seed " << seed;
      EXPECT_EQ(lent.completed, owned.completed) << text << " seed " << seed;
    }
  }
}

// ---- Interventions ----------------------------------------------------

TEST(TransmissionBehavior, StiflingExtinguishesAndStopsEarly) {
  // stifle=1 on a cycle: every spreader gets one call, so the rumor dies
  // within a few vertices — the run must stop at extinction, orders of
  // magnitude before the default cutoff, and report the containment.
  const Graph g = gen::cycle(64);
  const auto spec = ProtocolSpec::parse("push(stifle=1)");
  ASSERT_TRUE(spec);
  const TrialSet set = run_trials(g, *spec, 0, 16, 9);
  EXPECT_EQ(set.incomplete, 16u);  // nothing completes
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_LT(set.rounds[i], 100.0) << i;     // extinction, not cutoff
    EXPECT_LT(set.informed[i], 64.0) << i;    // contained
    EXPECT_GE(set.informed[i], 1.0) << i;     // source always informed
    // The run ends within the stifle window of the last inform.
    EXPECT_LE(set.rounds[i], set.informed[i] + 1.0) << i;
  }
}

TEST(TransmissionBehavior, StifledCurveDerivesFromInformedCurve) {
  const Graph g = gen::complete(48);
  const auto spec = ProtocolSpec::parse("push(stifle=2,curve=on)");
  ASSERT_TRUE(spec);
  TrialArena arena;
  const TrialResult r = run_protocol(g, *spec, 0, 3, &arena);
  ASSERT_FALSE(r.informed_curve.empty());
  ASSERT_EQ(r.stifled_curve.size(), r.informed_curve.size());
  for (std::size_t t = 0; t < r.stifled_curve.size(); ++t) {
    const std::uint32_t expected =
        t >= 3 ? r.informed_curve[t - 3] : 0u;
    EXPECT_EQ(r.stifled_curve[t], expected) << "round " << t;
  }
  // And the trial runner carries the curves into the TrialSet.
  const TrialSet set = run_trials(g, *spec, 0, 4, 3);
  ASSERT_EQ(set.stifled_curves.size(), 4u);
  EXPECT_FALSE(set.stifled_curves[0].empty());
  EXPECT_EQ(set.informed[0],
            static_cast<double>(set.informed_curves[0].back()));
}

TEST(TransmissionBehavior, BlockingContainsAtTheUnblockedTarget) {
  // complete(64) with the top 25% blocked (uniform degrees → ids 0..15 by
  // the tie rule). From an unblocked source the rumor reaches exactly the
  // 48 unblocked vertices, then the run halts at containment.
  const Graph g = gen::complete(64);
  const auto spec = ProtocolSpec::parse("push(block=0.25)");
  ASSERT_TRUE(spec);
  const TrialSet set = run_trials(g, *spec, 63, 8, 5);
  EXPECT_EQ(set.incomplete, 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(set.informed[i], 48.0) << i;
    EXPECT_LT(set.rounds[i], 1000.0) << i;  // containment halt, not cutoff
  }
}

TEST(TransmissionBehavior, BlockingTheStarCenterQuarantinesTheRumor) {
  // block=0.02 on star(63): ceil rounds to one vertex — the center, the
  // highest-degree vertex (targeted immunization). A leaf source then has
  // no route at all; the caller list empties and the run halts immediately
  // instead of spinning to the cutoff.
  const Graph g = gen::star(63);
  const auto spec = ProtocolSpec::parse("push(block=0.02)");
  ASSERT_TRUE(spec);
  const TrialSet set = run_trials(g, *spec, 1, 4, 11);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(set.informed[i], 1.0) << i;
    EXPECT_LE(set.rounds[i], 3.0) << i;
  }

  // The same blocked set delays nothing for the walk protocols' coverage
  // of unblocked vertices: agents walk THROUGH the quarantined center and
  // carry the rumor around it.
  const auto visitx = ProtocolSpec::parse("visit-exchange(block=0.02)");
  ASSERT_TRUE(visitx);
  const TrialSet walks = run_trials(g, *visitx, 1, 4, 11);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(walks.informed[i], 63.0) << i;  // every leaf + source
  }
}

TEST(TransmissionBehavior, CompletedRunsReportFullInformedCount) {
  const Graph g = gen::complete(32);
  const TrialSet set =
      run_trials(g, default_spec(Protocol::push), 0, 6, 2);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(set.informed[i], 32.0);
  EXPECT_EQ(set.informed_summary().mean, 32.0);
}

TEST(TransmissionBehavior, SkipSamplingOnlyWhereTheGapsRepresentTheField) {
  // The gaps come from fast_log2f(1 - p): at tp=1e-10 the log is 0 (an
  // infinite gap scale, and every gap an undefined float-to-integer
  // conversion), at tp=1e-7 the implied probability is 17% low. Both
  // constant fields draw per entry instead.
  const Graph g = gen::cycle(64);
  TrialArena arena;
  const auto mode = [&](double tp) {
    TransmissionOptions options;
    options.tp = tp;
    TransmissionModel model;
    model.bind(g, options, arena, 1);
    return model.sample_mode();
  };
  EXPECT_EQ(mode(1e-10), SampleMode::batched);
  EXPECT_EQ(mode(1e-7), SampleMode::batched);
  EXPECT_EQ(mode(0.5), SampleMode::skip_uniform);
  EXPECT_EQ(mode(0.25), SampleMode::skip_uniform);

  const auto spec = ProtocolSpec::parse("push(tp=1e-10,max_rounds=50)");
  ASSERT_TRUE(spec);
  const TrialSet set = run_trials(g, *spec, 0, 6, 20260730ULL);
  for (const double informed : set.informed) EXPECT_EQ(informed, 1.0);
}

// ---- Scenario-level integration ---------------------------------------

TEST(TransmissionScenario, HeterogeneousSweepRunsEndToEnd) {
  std::istringstream in(
      "star(leaves=256) push(tp={0.5,1}) source=1 trials=4 label=p\n"
      "star(leaves=256) push(stifle=2) source=1 trials=4 label=stifled\n");
  std::string error;
  const auto specs = parse_scenario_stream(in, &error);
  ASSERT_TRUE(specs) << error;
  ASSERT_EQ(specs->size(), 3u);
  const auto results = run_scenarios(*specs, &error);
  ASSERT_TRUE(results) << error;
  // tp=0.5 at least as slow as tp=1 on the star (deterministic seeds).
  EXPECT_GE((*results)[0].set.summary().mean,
            (*results)[1].set.summary().mean);
  // The stifled scenario dies out: star broadcast needs the center to keep
  // calling for Θ(n log n) rounds, two rounds of spreading cannot finish.
  EXPECT_EQ((*results)[2].set.incomplete, 4u);
  EXPECT_LT((*results)[2].set.informed_summary().mean, 257.0);
}

// ---- Longest-first scheduler order (satellite) -------------------------

// A test-only simulator registered through the public extension mechanism:
// deterministic and benign by default, records its master seeds in
// execution order (for claim-order assertions), and throws on demand (for
// failure-propagation assertions, max_rounds=13 as the tripwire).
std::mutex g_chaos_mutex;
std::vector<std::uint64_t> g_chaos_seeds;

constexpr Round kChaosThrowRounds = 13;

TrialResult chaos_run(const Graph&, const ProtocolOptions& options,
                      Vertex, std::uint64_t seed, TrialArena*) {
  if (std::get<PushOptions>(options).max_rounds == kChaosThrowRounds) {
    throw std::runtime_error("chaos trial failure");
  }
  {
    std::lock_guard lock(g_chaos_mutex);
    g_chaos_seeds.push_back(seed);
  }
  TrialResult result;
  result.rounds = 1.0 + static_cast<double>(seed % 3);
  result.agent_rounds = result.rounds;
  result.informed = 1.0;
  result.completed = true;
  return result;
}

void chaos_format(const ProtocolOptions& options,
                  const ProtocolOptions& defaults,
                  spec_text::KeyValWriter& out) {
  const auto& opt = std::get<PushOptions>(options);
  if (opt.max_rounds != std::get<PushOptions>(defaults).max_rounds) {
    out.add("max_rounds", static_cast<std::uint64_t>(opt.max_rounds));
  }
}

bool chaos_set(ProtocolOptions& options, std::string_view key,
               std::string_view value) {
  if (key != "max_rounds") return false;
  const auto v = spec_text::parse_u64(value);
  if (!v) return false;
  std::get<PushOptions>(options).max_rounds = *v;
  return true;
}

TraceOptions* chaos_trace(ProtocolOptions&) { return nullptr; }

const SimulatorEntry& ensure_chaos_simulator() {
  static const SimulatorEntry* entry = [] {
    SimulatorEntry e;
    e.id = static_cast<Protocol>(0x7E57);
    e.name = "test-chaos";
    e.summary = "test-only simulator (execution-order probe / throw switch)";
    e.defaults = PushOptions{};
    e.run = chaos_run;
    e.format_options = chaos_format;
    e.set_option = chaos_set;
    e.trace = chaos_trace;
    SimulatorRegistry::instance().add(std::move(e));
    return SimulatorRegistry::instance().find("test-chaos");
  }();
  return *entry;
}

TEST(TrialSchedulerOrder, LongestFirstStartsTheCostliestBatch) {
  const SimulatorEntry& entry = ensure_chaos_simulator();
  const ProtocolSpec spec = default_spec(entry.id);
  Rng rng(1);
  const Graph g = gen::complete(8);
  std::vector<TrialSet> sets(3);
  std::vector<TrialBatch> batches(3);
  // File order: cheap, mid, costly — distinct seed bases identify batches.
  batches[0] = TrialBatch{.graph = &g, .protocol = &spec, .source = 0, .trials = 2, .master_seed = 1000, .out = &sets[0], .cost_hint = 10};
  batches[1] = TrialBatch{.graph = &g, .protocol = &spec, .source = 0, .trials = 2, .master_seed = 2000, .out = &sets[1], .cost_hint = 20};
  batches[2] = TrialBatch{.graph = &g, .protocol = &spec, .source = 0, .trials = 2, .master_seed = 3000, .out = &sets[2], .cost_hint = 90};
  ThreadPool pool(1);  // serial claims make the order observable

  {
    std::lock_guard lock(g_chaos_mutex);
    g_chaos_seeds.clear();
  }
  run_trial_batches(batches, {}, &pool, BatchOrder::longest_first);
  std::vector<std::uint64_t> longest_order;
  {
    std::lock_guard lock(g_chaos_mutex);
    longest_order = g_chaos_seeds;
  }
  ASSERT_EQ(longest_order.size(), 6u);
  // Costliest batch (seed base 3000) claimed first, cheapest last.
  EXPECT_EQ(longest_order[0], derive_seed(3000, 0));
  EXPECT_EQ(longest_order[1], derive_seed(3000, 1));
  EXPECT_EQ(longest_order[4], derive_seed(1000, 0));

  // Results are identical to file order, for any worker count.
  std::vector<TrialSet> file_sets(3);
  std::vector<TrialBatch> file_batches = batches;
  for (std::size_t b = 0; b < 3; ++b) file_batches[b].out = &file_sets[b];
  ThreadPool pool4(4);
  run_trial_batches(file_batches, {}, &pool4, BatchOrder::file);
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(file_sets[b].rounds, sets[b].rounds) << b;
  }
}

TEST(TrialSchedulerOrder, EmissionStaysInFileOrderUnderLongestFirst) {
  const SimulatorEntry& entry = ensure_chaos_simulator();
  const ProtocolSpec spec = default_spec(entry.id);
  Rng rng(1);
  const Graph g = gen::complete(8);
  std::vector<TrialSet> sets(3);
  std::vector<TrialBatch> batches(3);
  batches[0] = TrialBatch{.graph = &g, .protocol = &spec, .source = 0, .trials = 2, .master_seed = 1, .out = &sets[0], .cost_hint = 1};
  batches[1] = TrialBatch{.graph = &g, .protocol = &spec, .source = 0, .trials = 2, .master_seed = 2, .out = &sets[1], .cost_hint = 50};
  batches[2] = TrialBatch{.graph = &g, .protocol = &spec, .source = 0, .trials = 2, .master_seed = 3, .out = &sets[2], .cost_hint = 99};
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    std::vector<std::size_t> emitted;
    run_trial_batches(
        batches, [&](std::size_t b) { emitted.push_back(b); }, &pool,
        BatchOrder::longest_first);
    EXPECT_EQ(emitted, (std::vector<std::size_t>{0, 1, 2}))
        << workers << " workers";
  }
}

TEST(TrialSchedulerOrder, RunScenariosLongestFirstMatchesFileOrder) {
  std::istringstream in(
      "complete(n=16) push trials=3 label=a\n"
      "complete(n=64) push trials=3 label=b\n"
      "star(leaves=128) push source=1 trials=3 label=c\n");
  std::string error;
  const auto specs = parse_scenario_stream(in, &error);
  ASSERT_TRUE(specs) << error;
  const auto file_results = run_scenarios(*specs, &error);
  ASSERT_TRUE(file_results) << error;
  ScenarioRunOptions options;
  options.order = BatchOrder::longest_first;
  const auto longest_results = run_scenarios(*specs, &error, options);
  ASSERT_TRUE(longest_results) << error;
  for (std::size_t i = 0; i < specs->size(); ++i) {
    EXPECT_EQ((*longest_results)[i].set.rounds,
              (*file_results)[i].set.rounds)
        << i;
  }
}

// ---- Trial failure propagation (satellite bugfix) ----------------------

TEST(TrialFailure, RunTrialBatchesThrowsTypedErrorNamingTheBatch) {
  const SimulatorEntry& entry = ensure_chaos_simulator();
  ProtocolSpec good = default_spec(entry.id);
  ProtocolSpec bad = default_spec(entry.id);
  std::get<PushOptions>(bad.options).max_rounds = kChaosThrowRounds;
  Rng rng(1);
  const Graph g = gen::complete(8);
  std::vector<TrialSet> sets(2);
  std::vector<TrialBatch> batches(2);
  batches[0] = TrialBatch{.graph = &g, .protocol = &good, .source = 0, .trials = 2, .master_seed = 7, .out = &sets[0]};
  batches[1] = TrialBatch{.graph = &g, .protocol = &bad, .source = 0, .trials = 2, .master_seed = 8, .out = &sets[1]};
  ThreadPool pool(2);
  try {
    run_trial_batches(batches, {}, &pool);
    FAIL() << "expected TrialBatchError";
  } catch (const TrialBatchError& e) {
    EXPECT_EQ(e.batch_index(), 1u);
    EXPECT_STREQ(e.what(), "chaos trial failure");
  }
}

TEST(TrialFailure, RunScenariosNamesTheFailingScenario) {
  ensure_chaos_simulator();
  std::istringstream in(
      "complete(n=8) test-chaos trials=2 label=fine\n"
      "complete(n=8) test-chaos(max_rounds=13) trials=2 label=boom\n");
  std::string error;
  const auto specs = parse_scenario_stream(in, &error);
  ASSERT_TRUE(specs) << error;
  EXPECT_FALSE(run_scenarios(*specs, &error));
  EXPECT_NE(error.find("test-chaos(max_rounds=13)"), std::string::npos)
      << error;
  EXPECT_NE(error.find("chaos trial failure"), std::string::npos) << error;
}

}  // namespace
}  // namespace rumor
