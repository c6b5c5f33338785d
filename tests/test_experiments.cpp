// Experiments harness: spec construction, trial running, determinism,
// report formatting.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/scaling.hpp"
#include "experiments/report.hpp"
#include "experiments/specs.hpp"
#include "experiments/trials.hpp"

namespace rumor {
namespace {

TEST(GraphSpec, MakesEveryFamily) {
  Rng rng(1);
  const std::vector<GraphSpec> specs = {
      {Family::star, 8},
      {Family::double_star, 8},
      {Family::heavy_tree, 15},
      {Family::siamese, 15},
      {Family::cycle_stars_cliques, 3},
      {Family::complete, 8},
      {Family::cycle, 8},
      {Family::path, 8},
      {Family::grid, 3, 4},
      {Family::torus, 3, 4},
      {Family::hypercube, 4},
      {Family::circulant, 12, 2},
      {Family::clique_ring, 4, 3},
      {Family::clique_path, 4, 3},
      {Family::random_regular, 16, 4},
      {Family::erdos_renyi, 32, 0, 0.3},
      {Family::barbell, 4},
      {Family::star_of_cliques, 3, 3},
      {Family::binary_tree, 15},
  };
  for (const auto& spec : specs) {
    const Graph g = spec.make(rng);
    EXPECT_GT(g.num_vertices(), 0u) << spec.name();
    EXPECT_GT(g.num_edges(), 0u) << spec.name();
    EXPECT_FALSE(spec.name().empty());
  }
}

TEST(GraphSpec, NamesAreDescriptive) {
  EXPECT_EQ((GraphSpec{Family::star, 64}).name(), "star(leaves=64)");
  EXPECT_EQ((GraphSpec{Family::random_regular, 128, 8}).name(),
            "random_regular(n=128,d=8)");
  EXPECT_TRUE((GraphSpec{Family::random_regular, 128, 8}).is_random());
  EXPECT_FALSE((GraphSpec{Family::star, 64}).is_random());
}

TEST(ProtocolSpec, DefaultsAndNames) {
  EXPECT_EQ(default_spec(Protocol::push).name(), "push");
  EXPECT_EQ(default_spec(Protocol::push_pull).name(), "push-pull");
  EXPECT_EQ(default_spec(Protocol::visit_exchange).name(), "visit-exchange");
  EXPECT_EQ(default_spec(Protocol::meet_exchange).name(), "meet-exchange");
  EXPECT_EQ(default_spec(Protocol::hybrid).name(), "hybrid");
  EXPECT_EQ(default_spec(Protocol::frog).name(), "frog");
  EXPECT_EQ(default_spec(Protocol::dynamic_agent).name(), "dynamic-agent");
  EXPECT_EQ(default_spec(Protocol::multi_push_pull).name(),
            "multi-push-pull");
  EXPECT_EQ(default_spec(Protocol::multi_visit_exchange).name(),
            "multi-visit-exchange");
  EXPECT_EQ(default_spec(Protocol::async_push_pull).name(), "async");
  // meet-exchange defaults to the paper's auto-lazy convention.
  EXPECT_EQ(default_spec(Protocol::meet_exchange).walk().lazy,
            LazyMode::auto_bipartite);
  EXPECT_EQ(default_spec(Protocol::visit_exchange).walk().lazy,
            LazyMode::never);
}

TEST(RunProtocol, EveryRegisteredSimulatorProducesCompletedRuns) {
  Rng rng(2);
  const Graph g = (GraphSpec{Family::complete, 48}).make(rng);
  for (const SimulatorEntry& entry : SimulatorRegistry::instance().all()) {
    const TrialResult outcome =
        run_protocol(g, default_spec(entry.id), 0, 7);
    EXPECT_TRUE(outcome.completed) << entry.name;
    EXPECT_GT(outcome.rounds, 0.0) << entry.name;
  }
}

TEST(RunProtocol, TrialResultCarriesAgentMilestoneAndCurve) {
  Rng rng(6);
  const Graph g = (GraphSpec{Family::circulant, 96, 3}).make(rng);
  ProtocolSpec spec = default_spec(Protocol::visit_exchange);
  spec.walk().trace.informed_curve = true;
  const TrialResult r = run_protocol(g, spec, 0, 11);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.agent_rounds, 0.0);
  EXPECT_LE(r.agent_rounds, r.rounds);  // milestone recorded by completion
  ASSERT_EQ(r.informed_curve.size(), static_cast<std::size_t>(r.rounds) + 1);
  EXPECT_EQ(r.informed_curve.back(), g.num_vertices());
}

TEST(Trials, DeterministicAcrossRuns) {
  Rng rng(3);
  const Graph g = (GraphSpec{Family::hypercube, 6}).make(rng);
  const auto spec = default_spec(Protocol::push);
  const TrialSet a = run_trials(g, spec, 0, 16, 42);
  const TrialSet b = run_trials(g, spec, 0, 16, 42);
  EXPECT_EQ(a.rounds, b.rounds);  // identical sample vectors
  EXPECT_EQ(a.incomplete, 0u);
}

TEST(Trials, DifferentSeedsGiveDifferentSamples) {
  Rng rng(4);
  const Graph g = (GraphSpec{Family::complete, 64}).make(rng);
  const auto spec = default_spec(Protocol::push);
  const TrialSet a = run_trials(g, spec, 0, 16, 1);
  const TrialSet b = run_trials(g, spec, 0, 16, 2);
  EXPECT_NE(a.rounds, b.rounds);
}

TEST(Trials, FreshGraphModeDeterministic) {
  const GraphSpec gspec{Family::random_regular, 64, 6};
  const auto spec = default_spec(Protocol::push_pull);
  const TrialSet a = run_trials_fresh_graph(gspec, spec, 0, 8, 99);
  const TrialSet b = run_trials_fresh_graph(gspec, spec, 0, 8, 99);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Trials, SummaryMatchesSamples) {
  Rng rng(5);
  const Graph g = (GraphSpec{Family::complete, 32}).make(rng);
  const TrialSet set = run_trials(g, default_spec(Protocol::push), 0, 20, 7);
  const Summary s = set.summary();
  EXPECT_EQ(s.count, 20u);
  EXPECT_GE(s.min, 1.0);
  EXPECT_LE(s.min, s.median);
  EXPECT_LE(s.median, s.max);
}

TEST(Scaling, SeriesAccessors) {
  ScalingSeries series{"push", {{64, Summary::of(std::vector<double>{10, 12})},
                                {128, Summary::of(std::vector<double>{13})}}};
  EXPECT_EQ(series.sizes(), (std::vector<double>{64, 128}));
  EXPECT_EQ(series.means(), (std::vector<double>{11, 13}));
}

TEST(Scaling, RatioBoundedDetectsConstantFactor) {
  auto mk = [](std::vector<std::pair<double, double>> pts,
               std::string label) {
    ScalingSeries s{std::move(label), {}};
    for (auto [n, mean] : pts) {
      s.points.push_back({n, Summary::of(std::vector<double>{mean})});
    }
    return s;
  };
  const auto a = mk({{64, 10}, {128, 12}, {256, 14}}, "a");
  const auto b = mk({{64, 21}, {128, 25}, {256, 30}}, "b");  // ~2.1x of a
  EXPECT_LE(ratio_spread(a, b), 1.2);
  EXPECT_NEAR(max_ratio(b, a), 2.14, 0.03);
  const auto diverging = mk({{64, 10}, {128, 40}, {256, 160}}, "c");
  EXPECT_GT(ratio_spread(diverging, a), 2.0);
}

TEST(Scaling, WithinAdditiveLog) {
  auto mk = [](std::vector<std::pair<double, double>> pts) {
    ScalingSeries s{"s", {}};
    for (auto [n, mean] : pts) {
      s.points.push_back({n, Summary::of(std::vector<double>{mean})});
    }
    return s;
  };
  const auto slow = mk({{64, 30}, {256, 40}});
  const auto fast = mk({{64, 20}, {256, 25}});
  EXPECT_LE(additive_log_gap(slow, fast), 3.0);  // 3 ln 64 ≈ 12.5
  EXPECT_GT(additive_log_gap(slow, fast), 0.5);  // 0.5 ln 64 ≈ 2.1
  // A series never slower than the other needs no additive term at all.
  EXPECT_EQ(additive_log_gap(fast, slow), 0.0);
}

TEST(Report, FormatsMeanPm) {
  Summary s = Summary::of(std::vector<double>{10, 12, 14});
  const std::string text = fmt_mean_pm(s, 1);
  EXPECT_NE(text.find("12.0"), std::string::npos);
  EXPECT_NE(text.find("±"), std::string::npos);
}

}  // namespace
}  // namespace rumor
