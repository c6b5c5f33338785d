// Scenario API text round-trips: GraphSpec / ProtocolSpec / ScenarioSpec
// parse(name()) == original, for defaults and for non-default options, on
// every registered simulator and every graph family — plus parse error
// reporting.
#include <gtest/gtest.h>

#include <sstream>

#include "core/registry.hpp"
#include "experiments/scenario.hpp"
#include "support/spec_text.hpp"

namespace rumor {
namespace {

// ---- spec_text substrate ---------------------------------------------

TEST(SpecText, ParseCallForms) {
  auto bare = spec_text::parse_call("push");
  ASSERT_TRUE(bare);
  EXPECT_EQ(bare->head, "push");
  EXPECT_TRUE(bare->args.empty());

  auto call = spec_text::parse_call(" frog( frogs = 2 , lazy=half ) ");
  ASSERT_TRUE(call);
  EXPECT_EQ(call->head, "frog");
  ASSERT_EQ(call->args.size(), 2u);
  EXPECT_EQ(call->args[0].key, "frogs");
  EXPECT_EQ(call->args[0].value, "2");
  EXPECT_EQ(call->args[1].key, "lazy");
  EXPECT_EQ(call->args[1].value, "half");
}

TEST(SpecText, ParseCallErrors) {
  std::string error;
  EXPECT_FALSE(spec_text::parse_call("frog(frogs=2", &error));
  EXPECT_NE(error.find(")"), std::string::npos);
  EXPECT_FALSE(spec_text::parse_call("frog(frogs)", &error));
  EXPECT_FALSE(spec_text::parse_call("", &error));
  EXPECT_FALSE(spec_text::parse_call("fr og(a=1)", &error));
}

TEST(SpecText, DoubleFormattingRoundTripsAndStaysShort) {
  EXPECT_EQ(spec_text::fmt_double(0.1), "0.1");
  EXPECT_EQ(spec_text::fmt_double(2.0), "2");
  EXPECT_EQ(spec_text::fmt_double(0.0625), "0.0625");
  for (double v : {0.1, 1.0 / 3.0, 0.25, 3.14159265358979, 1e-9, 12345.678}) {
    const auto parsed = spec_text::parse_double(spec_text::fmt_double(v));
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, v);
  }
}

// ---- GraphSpec --------------------------------------------------------

TEST(GraphSpecText, EveryFamilyRoundTrips) {
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
  for (const GraphSpec& spec : specs) {
    std::string error;
    const auto parsed = GraphSpec::parse(spec.name(), &error);
    ASSERT_TRUE(parsed) << spec.name() << ": " << error;
    EXPECT_EQ(*parsed, spec) << spec.name();
  }
}

TEST(GraphSpecText, KeyedParameterNames) {
  EXPECT_EQ((GraphSpec{Family::grid, 3, 4}).name(), "grid(rows=3,cols=4)");
  EXPECT_EQ((GraphSpec{Family::erdos_renyi, 32, 0, 0.25}).name(),
            "erdos_renyi(n=32,p=0.25)");
  const auto parsed = GraphSpec::parse("circulant(n=4096, k=8)");
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->family, Family::circulant);
  EXPECT_EQ(parsed->a, 4096u);
  EXPECT_EQ(parsed->b, 8u);
}

TEST(GraphSpecText, RejectsUnknownFamilyAndParameters) {
  std::string error;
  EXPECT_FALSE(GraphSpec::parse("moebius(n=8)", &error));
  EXPECT_NE(error.find("moebius"), std::string::npos);
  EXPECT_FALSE(GraphSpec::parse("star(petals=8)", &error));
  EXPECT_NE(error.find("petals"), std::string::npos);
  EXPECT_FALSE(GraphSpec::parse("star", &error));  // missing leaves=
  EXPECT_FALSE(GraphSpec::parse("erdos_renyi(n=32,p=1.5)", &error));
}

// ---- ProtocolSpec -----------------------------------------------------

// Satellite regression: after the variant refactor, default_spec(p) must
// round-trip through parse(name()) for EVERY registered protocol — the
// bare name is the whole canonical form, and parsing it reproduces the
// registered defaults (including meet-exchange's auto-lazy convention).
TEST(ProtocolSpecText, DefaultSpecRoundTripsForEveryRegisteredProtocol) {
  for (const SimulatorEntry& entry : SimulatorRegistry::instance().all()) {
    const ProtocolSpec spec = default_spec(entry.id);
    EXPECT_EQ(spec.name(), entry.name);
    std::string error;
    const auto parsed = ProtocolSpec::parse(spec.name(), &error);
    ASSERT_TRUE(parsed) << entry.name << ": " << error;
    EXPECT_EQ(*parsed, spec) << entry.name;
  }
}

TEST(ProtocolSpecText, NonDefaultOptionsRoundTrip) {
  const std::vector<std::string> lines = {
      "push(tp=0.75)",
      "push(max_rounds=500,curve=on)",
      "push-pull(tp=0.9,curve=on)",
      "visit-exchange(alpha=0.25,lazy=always)",
      "visit-exchange(agents=128,placement=one_per_vertex)",
      "visit-exchange(placement=at_vertex,anchor=7)",
      "meet-exchange(alpha=0.5)",
      "meet-exchange(lazy=never,max_rounds=4000)",
      "hybrid(alpha=2,curve=on)",
      "frog(frogs=3,lazy=half,max_rounds=900)",
      "dynamic-agent(churn=0.05,loss_round=8,loss_fraction=0.5,alpha=0.5)",
      "multi-push-pull(rumors=16,interval=4)",
      "multi-visit-exchange(rumors=32,interval=2,alpha=0.5,lazy=auto)",
      "async(max_ticks=100000,pull=off)",
  };
  for (const std::string& line : lines) {
    std::string error;
    const auto spec = ProtocolSpec::parse(line, &error);
    ASSERT_TRUE(spec) << line << ": " << error;
    const std::string canonical = spec->name();
    const auto reparsed = ProtocolSpec::parse(canonical, &error);
    ASSERT_TRUE(reparsed) << canonical << ": " << error;
    EXPECT_EQ(*reparsed, *spec) << line << " -> " << canonical;
  }
}

TEST(ProtocolSpecText, ParsedOptionsReachTheOptionStructs) {
  const auto frog = ProtocolSpec::parse("frog(frogs=2,lazy=half)");
  ASSERT_TRUE(frog);
  EXPECT_EQ(frog->protocol, Protocol::frog);
  EXPECT_EQ(frog->frog().frogs_per_vertex, 2u);
  EXPECT_EQ(frog->frog().laziness, Laziness::half);

  const auto dynamic =
      ProtocolSpec::parse("dynamic-agent(churn=0.1,alpha=0.5)");
  ASSERT_TRUE(dynamic);
  EXPECT_EQ(dynamic->dynamic_agent().churn, 0.1);
  EXPECT_EQ(dynamic->dynamic_agent().walk.alpha, 0.5);
  EXPECT_EQ(dynamic->walk().alpha, 0.5);  // walk() reaches embedded options

  const auto multi = ProtocolSpec::parse("multi-visit-exchange(rumors=8)");
  ASSERT_TRUE(multi);
  EXPECT_EQ(multi->multi().rumor_count, 8u);

  const auto async_spec = ProtocolSpec::parse("async(pull=off)");
  ASSERT_TRUE(async_spec);
  EXPECT_FALSE(async_spec->async().pull_enabled);
}

TEST(ProtocolSpecText, RejectsUnknownProtocolsKeysAndBadValues) {
  std::string error;
  EXPECT_FALSE(ProtocolSpec::parse("teleport", &error));
  EXPECT_NE(error.find("teleport"), std::string::npos);
  EXPECT_FALSE(ProtocolSpec::parse("push(alpha=2)", &error));  // walk key
  EXPECT_FALSE(ProtocolSpec::parse("push(tp=1.5)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("visit-exchange(lazy=maybe)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("frog(frogs=0)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("multi-push-pull(rumors=65)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("async(pull=sometimes)", &error));
  // Retired keys: per-call loss q is tp=1-q, every walk simulator runs
  // the one batched stepper, and the inform-round and edge-traffic traces
  // never reach a TrialSet (C++ callers set TraceOptions directly).
  for (const char* text :
       {"push(loss=0.1)", "push-pull(loss=0.1)",
        "visit-exchange(engine=scalar)", "meet-exchange(engine=counter)",
        "hybrid(engine=batched)", "dynamic-agent(engine=counter)",
        "push(edge_traffic=on)", "push(tp=0.5,inform_rounds=on)",
        "push-pull(edge_traffic=on)", "visit-exchange(inform_rounds=on)",
        "meet-exchange(edge_traffic=off)", "hybrid(edge_traffic=on)",
        "frog(inform_rounds=on)"}) {
    EXPECT_FALSE(ProtocolSpec::parse(text, &error)) << text;
  }
  // dynamic-agent: keys it would never read, and churn=1 (every agent
  // reborn every round; the simulator requires churn < 1).
  for (const char* text :
       {"dynamic-agent(lazy=always)", "dynamic-agent(lazy=never)",
        "dynamic-agent(edge_traffic=on)", "dynamic-agent(churn=1)"}) {
    EXPECT_FALSE(ProtocolSpec::parse(text, &error)) << text;
  }
  EXPECT_TRUE(ProtocolSpec::parse("dynamic-agent(churn=0.99)", &error))
      << error;
}

TEST(ProtocolSpecText, RangeChecksRejectNaN) {
  // Negated comparisons let NaN through (every comparison is false); the
  // parsers must use the positive form so user text cannot smuggle NaN
  // into a simulator precondition abort.
  std::string error;
  EXPECT_FALSE(ProtocolSpec::parse("push(tp=nan)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("push-pull(tp=nan)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("visit-exchange(alpha=nan)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("dynamic-agent(churn=nan)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("dynamic-agent(loss_fraction=nan)",
                                   &error));
  EXPECT_FALSE(GraphSpec::parse("erdos_renyi(n=32,p=nan)", &error));
  EXPECT_FALSE(GraphSpec::parse("erdos_renyi(n=32,p=0)", &error));
}

TEST(ProtocolSpecText, IntegerOverflowAndAnchorSentinelRejected) {
  std::string error;
  // strtoull clamps overflow to UINT64_MAX; the parser must reject, not
  // silently replace the literal with a different value.
  EXPECT_FALSE(ProtocolSpec::parse(
      "push(max_rounds=999999999999999999999999)", &error));
  EXPECT_FALSE(ScenarioSpec::parse(
      "complete(n=8) push trials=999999999999999999999999", &error));
  // Anchor values at or above the kNoVertex sentinel would truncate.
  EXPECT_FALSE(ProtocolSpec::parse(
      "visit-exchange(placement=at_vertex,anchor=4294967295)", &error));
}

TEST(ProtocolSpecText, MultiRumorRejectsOptionsItCannotHonor) {
  std::string error;
  // Neither multi simulator records traces; the visit variant honors the
  // agent substrate, the push-pull variant only the cutoff.
  EXPECT_FALSE(ProtocolSpec::parse("multi-visit-exchange(curve=on)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("multi-push-pull(alpha=2)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("multi-push-pull(curve=on)", &error));
  EXPECT_TRUE(ProtocolSpec::parse("multi-visit-exchange(alpha=2)", &error));
  EXPECT_TRUE(ProtocolSpec::parse("multi-push-pull(max_rounds=500)", &error));
}

TEST(ProtocolSpecText, FormattersNeverEmitKeysTheirParserRejects) {
  // A programmatically built spec must round-trip through name() even when
  // fields its set hook cannot express were mutated directly: the
  // formatter mirrors the set hook, so such fields are simply omitted.
  ProtocolSpec multi_visit = default_spec(Protocol::multi_visit_exchange);
  multi_visit.multi().walk.trace.informed_curve = true;  // not honored
  multi_visit.multi().walk.alpha = 0.5;                  // honored
  std::string error;
  const auto reparsed = ProtocolSpec::parse(multi_visit.name(), &error);
  ASSERT_TRUE(reparsed) << multi_visit.name() << ": " << error;
  EXPECT_EQ(reparsed->multi().walk.alpha, 0.5);

  ProtocolSpec multi_pp = default_spec(Protocol::multi_push_pull);
  multi_pp.multi().walk.alpha = 0.5;  // push-pull variant has no agents
  multi_pp.multi().walk.max_rounds = 700;
  const auto reparsed_pp = ProtocolSpec::parse(multi_pp.name(), &error);
  ASSERT_TRUE(reparsed_pp) << multi_pp.name() << ": " << error;
  EXPECT_EQ(reparsed_pp->multi().walk.max_rounds, 700u);

  ProtocolSpec dynamic = default_spec(Protocol::dynamic_agent);
  dynamic.dynamic_agent().walk.lazy = LazyMode::always;    // not honored
  dynamic.dynamic_agent().walk.trace.edge_traffic = true;  // not honored
  dynamic.dynamic_agent().churn = 0.25;                    // honored
  const auto reparsed_dyn = ProtocolSpec::parse(dynamic.name(), &error);
  ASSERT_TRUE(reparsed_dyn) << dynamic.name() << ": " << error;
  EXPECT_EQ(reparsed_dyn->dynamic_agent().churn, 0.25);
}

TEST(ProtocolSpecText, AlphaRejectsInfinity) {
  std::string error;
  EXPECT_FALSE(ProtocolSpec::parse("visit-exchange(alpha=inf)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("visit-exchange(alpha=1e300)", &error));
}

TEST(ProtocolSpecText, AgentCountsBeyond32BitIdsRejected) {
  // Agent ids are 32-bit, so agents= stops at 2^32 - 1 for every
  // agent-based simulator.
  std::string error;
  EXPECT_TRUE(ProtocolSpec::parse("visit-exchange(agents=4294967295)", &error))
      << error;
  for (const char* text :
       {"visit-exchange(agents=4294967296)", "meet-exchange(agents=5000000000)",
        "hybrid(agents=18446744073709551615)",
        "dynamic-agent(agents=4294967296)",
        "multi-visit-exchange(agents=4294967296)"}) {
    EXPECT_FALSE(ProtocolSpec::parse(text, &error)) << text;
    EXPECT_NE(error.find("agents="), std::string::npos) << error;
  }
  // In a scenario file the error names the line.
  std::istringstream in(
      "complete(n=8) push\ncomplete(n=8) hybrid(agents=4294967296)\n");
  EXPECT_FALSE(parse_scenario_stream(in, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("agents=4294967296"), std::string::npos) << error;
}

TEST(ScenarioValidation, AlphaAgentCountsBeyond32BitIdsRejected) {
  // alpha can only be checked against n: 10^9 agents per vertex on 8
  // vertices is 8 * 10^9 agents. Validation (shared by one-shot runs,
  // --dry-run and serve SUBMIT) rejects it with the scenario's name.
  const auto reject = [](const std::string& line, const char* needle) {
    std::string error;
    const auto spec = ScenarioSpec::parse(line, &error);
    ASSERT_TRUE(spec) << line << ": " << error;
    EXPECT_FALSE(validate_scenarios({*spec}, &error)) << line;
    EXPECT_NE(error.find(spec->name()), std::string::npos) << error;
    EXPECT_NE(error.find(needle), std::string::npos) << error;
    EXPECT_FALSE(check_scenario_size(*spec, 8, &error)) << line;
  };
  reject("cycle(n=8) visit-exchange(alpha=1e9)", "8000000000 agents");
  reject("cycle(n=8) meet-exchange(alpha=6e8,shards=2)", "4800000000 agents");
  reject("cycle(n=8) hybrid(alpha=1e9)", "agents");
  reject("cycle(n=8) dynamic-agent(alpha=1e9)", "agents");
  reject("cycle(n=8) multi-visit-exchange(alpha=1e9)", "agents");
  // one_per_vertex needs exactly n agents.
  reject("cycle(n=8) visit-exchange(placement=one_per_vertex,agents=5)",
         "one_per_vertex");
  // At the bound itself: 5 * 10^8 * 8 = 4 * 10^9 agents still validates.
  std::string error;
  const auto ok =
      ScenarioSpec::parse("cycle(n=8) visit-exchange(alpha=5e8)", &error);
  ASSERT_TRUE(ok) << error;
  EXPECT_TRUE(validate_scenarios({*ok}, &error)) << error;
}

TEST(ScenarioValidation, RandomFamiliesRejectImpossibleParameters) {
  // Each line parses, but used to abort rumor_run (exit 134, killing a
  // serve daemon for every client) or spin forever drawing disconnected
  // graphs. Validation now probes random families like the others and
  // caps the connected-redraw loops, so each is a typed error naming the
  // scenario (exit 2 one-shot, ERR validate from serve).
  const auto reject = [](const std::string& line, const char* needle) {
    std::string error;
    const auto spec = ScenarioSpec::parse(line, &error);
    ASSERT_TRUE(spec) << line << ": " << error;
    EXPECT_FALSE(validate_scenarios({*spec}, &error)) << line;
    EXPECT_NE(error.find(spec->name()), std::string::npos) << error;
    EXPECT_NE(error.find(needle), std::string::npos) << error;
  };
  reject("random_regular(n=5,d=3) push", "n*d even");
  reject("random_regular(n=4,d=4) push", "1 <= d < n");
  reject("random_regular(n=10,d=0) push", "1 <= d < n");
  reject("random_regular(n=10,d=1) push", "d=1");
  reject("erdos_renyi(n=1000,p=0.000001) push", "no connected draw");
  reject("erdos_renyi(n=1000,p=0.000001) push fresh=on", "no connected draw");
  // The first four are known without drawing (rumor_run --dry-run marks
  // them '# invalid'); a perfect matching on two vertices is connected.
  for (const char* graph :
       {"random_regular(n=5,d=3)", "random_regular(n=4,d=4)",
        "random_regular(n=10,d=0)", "random_regular(n=10,d=1)"}) {
    EXPECT_FALSE(GraphSpec::parse(graph)->probe()) << graph;
  }
  std::string error;
  const auto pair = ScenarioSpec::parse("random_regular(n=2,d=1) push");
  ASSERT_TRUE(pair);
  EXPECT_TRUE(validate_scenarios({*pair}, &error)) << error;
}

TEST(ScenarioValidation, FreshDrawPastTheCapIsANamedTrialFailure) {
  // Under fresh=on every trial draws its own graph; a draw that gives up
  // fails that trial with the typed error, and the scheduler names the
  // batch.
  const auto graph = GraphSpec::parse("erdos_renyi(n=1000,p=0.000001)");
  ASSERT_TRUE(graph);
  const ProtocolSpec protocol = default_spec(Protocol::push);
  TrialSet out;
  TrialBatch batch;
  batch.fresh_spec = &*graph;
  batch.protocol = &protocol;
  batch.trials = 2;
  batch.out = &out;
  try {
    run_trial_batches({batch});
    FAIL() << "expected TrialBatchError";
  } catch (const TrialBatchError& e) {
    EXPECT_EQ(e.batch_index(), 0u);
    EXPECT_NE(std::string(e.what()).find("no connected draw"),
              std::string::npos)
        << e.what();
  }
}

// ---- ScenarioSpec -----------------------------------------------------

TEST(ScenarioSpecText, RoundTripsWithPlanAndLabel) {
  const std::vector<std::string> lines = {
      "star(leaves=8192) push source=1",
      "complete(n=64) visit-exchange",
      "random_regular(n=256,d=8) push-pull trials=50 seed=7 fresh=on",
      "heavy_tree(n=255) frog(frogs=2) source=254 label=frogs",
      "circulant(n=4096,k=8) meet-exchange(lazy=always) trials=5 "
      "label=lazy-meetx",
  };
  for (const std::string& line : lines) {
    std::string error;
    const auto spec = ScenarioSpec::parse(line, &error);
    ASSERT_TRUE(spec) << line << ": " << error;
    const auto reparsed = ScenarioSpec::parse(spec->name(), &error);
    ASSERT_TRUE(reparsed) << spec->name() << ": " << error;
    EXPECT_EQ(*reparsed, *spec) << line << " -> " << spec->name();
  }
}

TEST(ScenarioSpecText, DefaultPlanKeysAreOmitted) {
  const auto spec = ScenarioSpec::parse("complete(n=64) push");
  ASSERT_TRUE(spec);
  EXPECT_EQ(spec->name(), "complete(n=64) push");
  EXPECT_EQ(spec->plan.trials, 20u);
  EXPECT_EQ(spec->plan.seed, kDefaultMasterSeed);
  EXPECT_EQ(spec->plan.source, 0u);
  EXPECT_FALSE(spec->plan.fresh_graph);
}

TEST(ScenarioSpecText, RejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::parse("complete(n=64)", &error));  // no protocol
  EXPECT_FALSE(ScenarioSpec::parse("complete(n=64) push bogus", &error));
  EXPECT_FALSE(ScenarioSpec::parse("complete(n=64) push cycles=9", &error));
  // '#' in a label would be stripped as a comment on file re-read.
  EXPECT_FALSE(ScenarioSpec::parse("complete(n=64) push label=a#b", &error));
  // fresh graphs only make sense for random families.
  EXPECT_FALSE(ScenarioSpec::parse("complete(n=64) push fresh=on", &error));
  EXPECT_NE(error.find("fresh"), std::string::npos);
}

}  // namespace
}  // namespace rumor
