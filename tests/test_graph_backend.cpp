// Graph backend tests: the implicit closed-form families must be
// indistinguishable from their materialized builders — same degrees,
// neighbor order, edge endpoints, properties — and O(1) memory; the
// GraphSpec probe must agree with what make() builds; the lazy trial
// scheduler must produce byte-identical samples to the eager path.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "alloc_probe.hpp"
#include "core/protocol_spec.hpp"
#include "experiments/scenario.hpp"
#include "experiments/trials.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/implicit.hpp"
#include "support/thread_pool.hpp"
#include "support/trial_arena.hpp"

namespace rumor {
namespace {

Graph implicit_graph(ImplicitKind kind, std::uint64_t a, std::uint64_t b) {
  ImplicitDesc desc;
  std::string why;
  EXPECT_TRUE(make_implicit_desc(kind, a, b, desc, &why)) << why;
  return Graph::make_implicit(desc);
}

// Exhaustive structural equality: every accessor, every slot, every edge.
void expect_same_graph(const Graph& imp, const Graph& ref) {
  ASSERT_EQ(imp.num_vertices(), ref.num_vertices());
  ASSERT_EQ(imp.num_edges(), ref.num_edges());
  EXPECT_EQ(imp.min_degree(), ref.min_degree());
  EXPECT_EQ(imp.max_degree(), ref.max_degree());
  EXPECT_EQ(imp.degrees_all_pow2(), ref.degrees_all_pow2());
  for (Vertex v = 0; v < ref.num_vertices(); ++v) {
    ASSERT_EQ(imp.degree(v), ref.degree(v)) << "v=" << v;
    for (std::uint32_t i = 0; i < ref.degree(v); ++i) {
      ASSERT_EQ(imp.neighbor(v, i), ref.neighbor(v, i))
          << "v=" << v << " i=" << i;
    }
  }
  for (EdgeId e = 0; e < ref.num_edges(); ++e) {
    ASSERT_EQ(imp.edge_endpoints(e), ref.edge_endpoints(e)) << "e=" << e;
  }
  for (Vertex u = 0; u < ref.num_vertices(); ++u) {
    for (Vertex v = 0; v < ref.num_vertices(); ++v) {
      ASSERT_EQ(imp.has_edge(u, v), ref.has_edge(u, v))
          << "u=" << u << " v=" << v;
    }
  }
  const GraphProperties& pi = imp.properties();
  const GraphProperties& pr = ref.properties();
  EXPECT_EQ(pi.connected, pr.connected);
  EXPECT_EQ(pi.bipartite, pr.bipartite);
  EXPECT_EQ(pi.regular, pr.regular);
  EXPECT_EQ(pi.degrees_all_pow2, pr.degrees_all_pow2);
}

TEST(ImplicitBackend, StarMatchesBuilder) {
  for (const Vertex leaves : {2u, 3u, 7u, 64u}) {
    SCOPED_TRACE(leaves);
    expect_same_graph(implicit_graph(ImplicitKind::star, leaves, 0),
                      gen::star(leaves));
  }
}

TEST(ImplicitBackend, CycleMatchesBuilder) {
  for (const Vertex n : {3u, 4u, 5u, 33u}) {
    SCOPED_TRACE(n);
    expect_same_graph(implicit_graph(ImplicitKind::cycle, n, 0),
                      gen::cycle(n));
  }
}

TEST(ImplicitBackend, CompleteMatchesBuilder) {
  for (const Vertex n : {2u, 3u, 5u, 17u}) {
    SCOPED_TRACE(n);
    expect_same_graph(implicit_graph(ImplicitKind::complete, n, 0),
                      gen::complete(n));
  }
}

TEST(ImplicitBackend, GridMatchesBuilder) {
  const std::pair<Vertex, Vertex> shapes[] = {
      {1, 2}, {2, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 4}, {5, 3}, {7, 7}};
  for (const auto& [rows, cols] : shapes) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    expect_same_graph(implicit_graph(ImplicitKind::grid, rows, cols),
                      gen::grid2d(rows, cols));
  }
}

TEST(ImplicitBackend, TorusMatchesBuilder) {
  const std::pair<Vertex, Vertex> shapes[] = {
      {3, 3}, {3, 4}, {4, 3}, {4, 4}, {5, 7}, {6, 6}};
  for (const auto& [rows, cols] : shapes) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    expect_same_graph(implicit_graph(ImplicitKind::torus, rows, cols),
                      gen::torus2d(rows, cols));
  }
}

TEST(ImplicitBackend, CirculantMatchesBuilder) {
  const std::pair<Vertex, std::uint32_t> shapes[] = {
      {4, 1}, {6, 2}, {8, 3}, {10, 4},  // boundary n == 2k + 2
      {9, 2}, {16, 4}, {33, 5}};
  for (const auto& [n, k] : shapes) {
    SCOPED_TRACE(std::to_string(n) + "," + std::to_string(k));
    expect_same_graph(implicit_graph(ImplicitKind::circulant, n, k),
                      gen::circulant(n, k));
  }
}

TEST(ImplicitBackend, RejectsGeneratorPreconditionViolations) {
  ImplicitDesc desc;
  std::string why;
  EXPECT_FALSE(make_implicit_desc(ImplicitKind::star, 1, 0, desc, &why));
  EXPECT_FALSE(make_implicit_desc(ImplicitKind::cycle, 2, 0, desc, &why));
  EXPECT_FALSE(make_implicit_desc(ImplicitKind::complete, 1, 0, desc, &why));
  EXPECT_FALSE(make_implicit_desc(ImplicitKind::grid, 1, 1, desc, &why));
  EXPECT_FALSE(make_implicit_desc(ImplicitKind::torus, 2, 5, desc, &why));
  EXPECT_FALSE(
      make_implicit_desc(ImplicitKind::circulant, 5, 2, desc, &why));
  // Representation limits: complete(2^17) has ~2^33 edge slots.
  EXPECT_FALSE(
      make_implicit_desc(ImplicitKind::complete, 1u << 17, 0, desc, &why));
  EXPECT_NE(why.find("too large"), std::string::npos) << why;
}

// ---- Random-neighbor equivalence --------------------------------------
//
// The per-call draw path must consume the RNG identically on both
// backends so seeded trajectories cannot depend on the storage choice.

TEST(ImplicitBackend, RandomNeighborDrawsMatchMaterialized) {
  const Graph imp = implicit_graph(ImplicitKind::torus, 5, 7);
  const Graph ref = gen::torus2d(5, 7);
  Rng rng_a(42);
  Rng rng_b(42);
  for (int step = 0; step < 2000; ++step) {
    const Vertex v = static_cast<Vertex>(step % imp.num_vertices());
    ASSERT_EQ(imp.random_neighbor(v, rng_a), ref.random_neighbor(v, rng_b));
  }
  // The streams stayed in lockstep.
  EXPECT_EQ(rng_a(), rng_b());
}

// ---- GraphSpec probe vs. build ----------------------------------------

TEST(GraphProbe, SizesMatchBuiltGraphForEveryFamily) {
  const char* kSpecs[] = {
      "star(leaves=10)",     "double_star(leaves=6)",
      "heavy_tree(n=15)",    "siamese(n=9)",
      "cycle_stars_cliques(k=3)", "complete(n=7)",
      "cycle(n=9)",          "path(n=8)",
      "grid(rows=3,cols=5)", "torus(rows=3,cols=4)",
      "hypercube(dim=4)",    "circulant(n=12,k=3)",
      "clique_ring(groups=4,k=3)", "clique_path(groups=4,k=3)",
      "random_regular(n=16,d=3)", "barbell(k=5)",
      "star_of_cliques(c=3,k=4)", "binary_tree(n=12)",
      "star(leaves=10,backend=owned)", "grid(rows=1,cols=7)"};
  for (const char* text : kSpecs) {
    SCOPED_TRACE(text);
    std::string error;
    const auto spec = GraphSpec::parse(text, &error);
    ASSERT_TRUE(spec) << error;
    const auto probe = spec->probe(&error);
    ASSERT_TRUE(probe) << error;
    Rng rng(7);
    const Graph g = spec->make(rng);
    EXPECT_EQ(probe->n, g.num_vertices());
    EXPECT_EQ(probe->m, g.num_edges());
    EXPECT_EQ(probe->backend, g.backend());
    if (probe->backend == GraphBackend::implicit) {
      EXPECT_EQ(probe->graph_bytes, 0u);
    } else {
      EXPECT_GT(probe->graph_bytes, 0u);
    }
  }
}

TEST(GraphProbe, ReportsTypedErrorsInsteadOfBuilding) {
  std::string error;
  const auto bad = GraphSpec::parse("torus(rows=2,cols=9)", &error);
  ASSERT_TRUE(bad);  // parse accepts it; probe rejects it
  EXPECT_FALSE(bad->probe(&error));
  EXPECT_NE(error.find("torus"), std::string::npos) << error;

  const auto missing = GraphSpec::parse("file:/nonexistent/edges.txt");
  ASSERT_TRUE(missing);
  error.clear();
  EXPECT_FALSE(missing->probe(&error));
  EXPECT_NE(error.find("/nonexistent/edges.txt"), std::string::npos) << error;
}

TEST(GraphSpecGrammar, BackendKeyRoundTripsAndValidates) {
  std::string error;
  const auto owned = GraphSpec::parse("star(leaves=8,backend=owned)", &error);
  ASSERT_TRUE(owned) << error;
  EXPECT_EQ(owned->backend, GraphBackendChoice::owned);
  EXPECT_EQ(owned->resolved_backend(), GraphBackend::owned);
  EXPECT_EQ(owned->name(), "star(leaves=8,backend=owned)");
  EXPECT_EQ(GraphSpec::parse(owned->name()), *owned);

  const auto imp = GraphSpec::parse("star(leaves=8,backend=implicit)");
  ASSERT_TRUE(imp);
  EXPECT_EQ(imp->resolved_backend(), GraphBackend::implicit);

  const auto auto_spec = GraphSpec::parse("star(leaves=8)");
  ASSERT_TRUE(auto_spec);
  EXPECT_EQ(auto_spec->backend, GraphBackendChoice::automatic);
  EXPECT_EQ(auto_spec->resolved_backend(), GraphBackend::implicit);
  EXPECT_EQ(auto_spec->name(), "star(leaves=8)");  // default stays implicit

  // Families without closed forms resolve to owned and reject backend=implicit.
  const auto tree = GraphSpec::parse("binary_tree(n=15)");
  ASSERT_TRUE(tree);
  EXPECT_EQ(tree->resolved_backend(), GraphBackend::owned);
  EXPECT_FALSE(GraphSpec::parse("binary_tree(n=15,backend=implicit)", &error));
  EXPECT_NE(error.find("implicit"), std::string::npos) << error;
  EXPECT_FALSE(GraphSpec::parse("star(leaves=8,backend=nope)", &error));
}

// ---- Trial equivalence across backends --------------------------------
//
// The acceptance contract: switching star/cycle/... to the implicit
// backend must keep every seeded sample byte-identical. Exercised per
// protocol through the same run_trials path rumor_run uses.

TEST(ImplicitBackend, TrialsMatchMaterializedAcrossProtocols) {
  const Graph imp = implicit_graph(ImplicitKind::star, 48, 0);
  const Graph ref = gen::star(48);
  const char* kProtocols[] = {"push", "push-pull", "visit-exchange",
                              "meet-exchange", "hybrid",
                              "push(tp=0.5,curve=on)",
                              "visit-exchange(tp=deg^-1)"};
  for (const char* text : kProtocols) {
    SCOPED_TRACE(text);
    std::string error;
    const auto spec = ProtocolSpec::parse(text, &error);
    ASSERT_TRUE(spec) << error;
    const TrialSet a = run_trials(imp, *spec, 1, 5, 123);
    const TrialSet b = run_trials(ref, *spec, 1, 5, 123);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.agent_rounds, b.agent_rounds);
    EXPECT_EQ(a.informed, b.informed);
    EXPECT_EQ(a.informed_curves, b.informed_curves);
  }
}

// ---- Lazy scheduler ----------------------------------------------------

TEST(LazyScheduler, LazyBatchesMatchEagerResults) {
  const Graph eager_graph = implicit_graph(ImplicitKind::cycle, 40, 0);
  const auto graph_spec = GraphSpec::parse("cycle(n=40)");
  ASSERT_TRUE(graph_spec);
  const auto protocol = ProtocolSpec::parse("push-pull");
  ASSERT_TRUE(protocol);

  TrialSet eager;
  TrialSet lazy;
  TrialBatch batch;
  batch.protocol = &*protocol;
  batch.source = 3;
  batch.trials = 6;
  batch.master_seed = 99;

  batch.graph = &eager_graph;
  batch.out = &eager;
  run_trial_batches({batch});

  batch.graph = nullptr;
  batch.lazy_spec = &*graph_spec;
  batch.out = &lazy;
  run_trial_batches({batch});

  EXPECT_EQ(eager.rounds, lazy.rounds);
  EXPECT_EQ(eager.informed, lazy.informed);
}

TEST(LazyScheduler, ScenarioRunsValidateWithoutBuildingAndMatchEager) {
  // A deterministic scenario validates analytically; an impossible source
  // must be caught before any trial even with no graph built.
  const auto bad = ScenarioSpec::parse("star(leaves=16) push source=200");
  ASSERT_TRUE(bad);
  std::string error;
  EXPECT_FALSE(validate_scenarios({*bad}, &error));
  EXPECT_NE(error.find("source=200"), std::string::npos) << error;

  const auto good =
      ScenarioSpec::parse("star(leaves=16) push source=1 trials=4 seed=7");
  ASSERT_TRUE(good);
  const auto via_scheduler = run_scenarios({*good}, &error);
  ASSERT_TRUE(via_scheduler) << error;
  const auto protocol = ProtocolSpec::parse("push");
  ASSERT_TRUE(protocol);
  const TrialSet direct = run_trials(gen::star(16), *protocol, 1, 4, 7);
  EXPECT_EQ(via_scheduler->front().set.rounds, direct.rounds);
  EXPECT_EQ(via_scheduler->front().n, 17u);
  EXPECT_EQ(via_scheduler->front().edges, 16u);
}

// Runs one two-trial push batch per lazy spec, in order, on a one-worker
// pool, so claims follow the batch order; the last batch starts from
// `last_source`. Returns how many graphs the run built: Graph::uid()
// counts every graph the process builds. `sets` receives the results.
std::uint64_t lazy_builds(const std::vector<GraphSpec>& specs,
                          std::vector<TrialSet>& sets,
                          Vertex last_source = 0) {
  const ProtocolSpec protocol = default_spec(Protocol::push);
  sets.assign(specs.size(), TrialSet{});
  std::vector<TrialBatch> batches(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    batches[i] = TrialBatch{.lazy_spec = &specs[i],
                            .protocol = &protocol,
                            .source = i + 1 == specs.size() ? last_source : 0,
                            .trials = 2,
                            .master_seed = 40 + i,
                            .out = &sets[i]};
  }
  ThreadPool pool(1);
  TrialRunOptions options;
  options.pool = &pool;
  const std::uint64_t before = gen::cycle(4).uid();
  run_trial_batches(batches, options);
  return gen::cycle(4).uid() - before - 1;
}

TEST(LazyScheduler, ConsecutiveBatchesOfOneSpecShareOneBuild) {
  const auto cube = GraphSpec::parse("hypercube(dim=3)");
  const auto path = GraphSpec::parse("path(n=8)");
  ASSERT_TRUE(cube && path);
  std::vector<TrialSet> sets;
  // A A: the run of two batches builds the cube once, and each batch's
  // samples are those of its own seed on the eagerly built graph.
  EXPECT_EQ(lazy_builds({*cube, *cube}, sets), 1u);
  const ProtocolSpec protocol = default_spec(Protocol::push);
  const Graph eager = gen::hypercube(3);
  EXPECT_EQ(sets[0].rounds, run_trials(eager, protocol, 0, 2, 40).rounds);
  EXPECT_EQ(sets[1].rounds, run_trials(eager, protocol, 0, 2, 41).rounds);
  // A B A: the second cube batch is not next to the first, so it builds
  // again.
  EXPECT_EQ(lazy_builds({*cube, *path, *cube}, sets), 3u);
}

TEST(LazyScheduler, BatchesOnTheTwoAxesDoNotShareABuild) {
  // Two single-trial batches on a four-worker pool: fewer trials than
  // workers, so the shards=2 batch runs wide, before every narrow trial.
  // The two name one spec and sit next to each other in claim order, but
  // a shared build would be held from the wide phase through the narrow
  // drain, so each builds its own.
  const auto cube = GraphSpec::parse("hypercube(dim=3)");
  const auto wide = ProtocolSpec::parse("push(shards=2)");
  const ProtocolSpec narrow = default_spec(Protocol::push);
  ASSERT_TRUE(cube && wide);
  std::vector<TrialSet> sets(2);
  const std::vector<TrialBatch> batches = {
      TrialBatch{.lazy_spec = &*cube,
                 .protocol = &*wide,
                 .trials = 1,
                 .out = &sets[0]},
      TrialBatch{.lazy_spec = &*cube,
                 .protocol = &narrow,
                 .trials = 1,
                 .out = &sets[1]}};
  ThreadPool pool(4);
  TrialRunOptions options;
  options.pool = &pool;
  const std::uint64_t before = gen::cycle(4).uid();
  run_trial_batches(batches, options);
  EXPECT_EQ(gen::cycle(4).uid(), before + 2 + 1);
}

TEST(LazyScheduler, SharedSlotChecksEveryBatchSource) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The second batch runs on the first one's build; its source is outside
  // the graph, and the slot must reject it before any simulator sees it.
  const auto cube = GraphSpec::parse("hypercube(dim=3)");
  ASSERT_TRUE(cube);
  std::vector<TrialSet> sets;
  EXPECT_DEATH((void)lazy_builds({*cube, *cube}, sets, /*last_source=*/8),
               "precondition failed: batch\\.source <");
}

// ---- O(1) memory ------------------------------------------------------

TEST(ImplicitBackend, TenMillionLeafStarAllocatesNoAdjacency) {
  // Construction: a 10^7-leaf star's CSR would be ~280 MB (24m + 4n). The
  // implicit build may allocate control blocks (shared property state),
  // nothing proportional to the graph.
  constexpr std::uint64_t kLeaves = 10'000'000;
  std::size_t build_bytes = 0;
  ImplicitDesc desc;
  ASSERT_TRUE(make_implicit_desc(ImplicitKind::star, kLeaves, 0, desc));
  {
    test_alloc::CountScope count;
    const Graph g = Graph::make_implicit(desc);
    build_bytes = test_alloc::g_bytes.load();
    EXPECT_EQ(g.num_vertices(), kLeaves + 1);
  }
  EXPECT_LT(build_bytes, 4096u) << "implicit build must be O(1) memory";

  // A push trial on it: the arena's per-vertex state is O(n) and expected;
  // adjacency storage (~280 MB) is not. Warm the arena once, then count a
  // steady-state trial — on the implicit backend it must allocate NOTHING,
  // which is only possible if no adjacency is ever materialized.
  const Graph g = Graph::make_implicit(desc);
  const auto protocol = ProtocolSpec::parse("push(max_rounds=8)");
  ASSERT_TRUE(protocol);
  TrialArena arena;
  (void)run_protocol(g, *protocol, 0, 1, &arena);
  std::size_t steady_allocs = 0;
  {
    test_alloc::CountScope count;
    (void)run_protocol(g, *protocol, 0, 2, &arena);
    steady_allocs = test_alloc::g_allocations.load();
  }
  EXPECT_EQ(steady_allocs, 0u);
}

}  // namespace
}  // namespace rumor
