// TrialArena engine tests: EpochArray semantics, arena-vs-owned result
// equivalence, arena reuse across run_trials invocations, and the
// instrumented-allocator proof that steady-state trials perform zero heap
// allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/dynamic_agents.hpp"
#include "core/frog.hpp"
#include "core/hybrid.hpp"
#include "core/meet_exchange.hpp"
#include "core/multi_rumor.hpp"
#include "core/push.hpp"
#include "core/push_pull.hpp"
#include "core/visit_exchange.hpp"
#include "experiments/trials.hpp"
#include "graph/generators.hpp"
#include "support/epoch_array.hpp"
#include "support/thread_pool.hpp"
#include "support/trial_arena.hpp"

// ---- Instrumented global allocator -----------------------------------
//
// Linking these replacements into the test binary lets individual tests
// count heap allocations in a window (counters shared across test files
// via alloc_probe.hpp). Counting is off by default so the rest of the
// suite is unaffected.
#include "alloc_probe.hpp"

namespace rumor::test_alloc {
std::atomic<bool> g_count{false};
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};
}  // namespace rumor::test_alloc

namespace {
void* counted_alloc(std::size_t size) {
  if (rumor::test_alloc::g_count.load(std::memory_order_relaxed)) {
    rumor::test_alloc::g_allocations.fetch_add(1, std::memory_order_relaxed);
    rumor::test_alloc::g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
// The nothrow forms (std::stable_sort's and std::inplace_merge's temporary
// buffers) must come from malloc too: the replaced deletes below free()
// every block, and AddressSanitizer reports a free() of a block its own
// operator new handed out as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rumor {
namespace {

// ---- EpochArray ------------------------------------------------------

TEST(EpochArray, DefaultsAndWrites) {
  EpochArray<std::uint32_t> arr;
  arr.reset(4, 99);
  EXPECT_EQ(arr.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(arr.get(i), 99u);
    EXPECT_FALSE(arr.touched(i));
  }
  arr.set(2, 7);
  EXPECT_TRUE(arr.touched(2));
  EXPECT_EQ(arr.get(2), 7u);
  EXPECT_EQ(arr.get(1), 99u);
}

TEST(EpochArray, ResetForgetsWritesInO1) {
  EpochArray<std::uint32_t> arr;
  arr.reset(8, 0);
  for (std::size_t i = 0; i < 8; ++i) arr.set(i, 1 + static_cast<std::uint32_t>(i));
  arr.reset(8, 5);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(arr.get(i), 5u);
    EXPECT_FALSE(arr.touched(i));
  }
}

TEST(EpochArray, AddAccumulatesFromDefault) {
  EpochArray<std::uint32_t> arr;
  arr.reset(3, 0);
  EXPECT_EQ(arr.add(1, 2), 2u);
  EXPECT_EQ(arr.add(1, 3), 5u);
  EXPECT_EQ(arr.get(1), 5u);
  EXPECT_EQ(arr.get(0), 0u);
}

TEST(EpochArray, ShrinkAndGrowAcrossResets) {
  EpochArray<std::uint32_t> arr;
  arr.reset(16, 1);
  arr.set(15, 3);
  arr.reset(4, 2);  // shrink: capacity kept
  EXPECT_EQ(arr.size(), 4u);
  EXPECT_EQ(arr.get(3), 2u);
  arr.reset(32, 9);  // grow
  EXPECT_EQ(arr.size(), 32u);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(arr.get(i), 9u);
}

TEST(EpochArray, ToVectorMaterializesDefaults) {
  EpochArray<std::uint32_t> arr;
  arr.reset(3, 8);
  arr.set(1, 4);
  const std::vector<std::uint32_t> v = arr.to_vector();
  EXPECT_EQ(v, (std::vector<std::uint32_t>{8, 4, 8}));
}

TEST(StampSetReset, ReusesAndEmpties) {
  StampSet set(4);
  set.insert(2);
  set.reset(4);
  EXPECT_FALSE(set.contains(2));
  set.reset(16);  // grow
  set.insert(11);
  EXPECT_TRUE(set.contains(11));
  set.reset(16);
  EXPECT_FALSE(set.contains(11));
}

// ---- Arena-vs-owned equivalence --------------------------------------
//
// Lending an arena must not change any simulated trajectory: same (graph,
// protocol, seed) → identical RunResult, with all traces on, and the
// arena's recycled state from previous trials must never leak into the
// next one.

TraceOptions all_traces() {
  TraceOptions t;
  t.informed_curve = true;
  t.inform_rounds = true;
  t.edge_traffic = true;
  return t;
}

void expect_same(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.agent_rounds, b.agent_rounds);
  EXPECT_EQ(a.informed, b.informed);
  EXPECT_EQ(a.informed_curve, b.informed_curve);
  EXPECT_EQ(a.stifled_curve, b.stifled_curve);
  EXPECT_EQ(a.vertex_inform_round, b.vertex_inform_round);
  EXPECT_EQ(a.agent_inform_round, b.agent_inform_round);
  EXPECT_EQ(a.edge_traffic, b.edge_traffic);
}

TEST(TrialArena, ArenaAndOwnedTrialsAgreeAcrossProtocolsAndGraphs) {
  Rng gen_rng(2);
  std::vector<Graph> graphs;
  graphs.push_back(gen::heavy_binary_tree(63));
  graphs.push_back(gen::circulant(80, 8));
  graphs.push_back(gen::random_regular(64, 5, gen_rng));
  TrialArena arena;  // deliberately shared across everything below
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      {
        PushOptions o;
        o.trace = all_traces();
        expect_same(PushProcess(g, 0, seed, o, &arena).run(),
                    PushProcess(g, 0, seed, o).run());
      }
      {
        PushPullOptions o;
        o.trace = all_traces();
        expect_same(PushPullProcess(g, 0, seed, o, &arena).run(),
                    PushPullProcess(g, 0, seed, o).run());
      }
      {
        WalkOptions o;
        o.trace = all_traces();
        expect_same(VisitExchangeProcess(g, 0, seed, o, &arena).run(),
                    VisitExchangeProcess(g, 0, seed, o).run());
      }
      {
        WalkOptions o = MeetExchangeProcess::default_options();
        o.trace = all_traces();
        expect_same(MeetExchangeProcess(g, 0, seed, o, &arena).run(),
                    MeetExchangeProcess(g, 0, seed, o).run());
      }
    }
  }
}

TEST(TrialArena, ArenaAndOwnedTrialsAgreeForHybridDynamicFrog) {
  Rng gen_rng(5);
  std::vector<Graph> graphs;
  graphs.push_back(gen::heavy_binary_tree(63));
  graphs.push_back(gen::cycle(64));  // bipartite: exercises auto laziness
  graphs.push_back(gen::random_regular(64, 5, gen_rng));
  TrialArena arena;  // deliberately shared and dirty across everything below
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      {
        WalkOptions o;
        o.lazy = LazyMode::auto_bipartite;
        o.trace.informed_curve = true;
        o.trace.inform_rounds = true;
        expect_same(HybridProcess(g, 0, seed, o, &arena).run(),
                    HybridProcess(g, 0, seed, o).run());
      }
      {
        DynamicAgentOptions o;
        o.churn = 0.1;
        o.loss_round = 3;
        o.loss_fraction = 0.25;
        o.walk.trace.informed_curve = true;
        o.walk.trace.inform_rounds = true;
        expect_same(
            DynamicVisitExchangeProcess(g, 0, seed, o, &arena).run(),
            DynamicVisitExchangeProcess(g, 0, seed, o).run());
      }
      {
        FrogOptions o;
        o.frogs_per_vertex = 2;
        o.trace.informed_curve = true;
        o.trace.inform_rounds = true;
        expect_same(FrogProcess(g, 0, seed, o, &arena).run(),
                    FrogProcess(g, 0, seed, o).run());
      }
    }
  }
}

void expect_same_multi(const MultiRumorResult& a, const MultiRumorResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.completion_round, b.completion_round);
  EXPECT_EQ(a.latency, b.latency);
}

TEST(TrialArena, ArenaAndOwnedTrialsAgreeForMultiRumor) {
  const Graph g = gen::hypercube(6);
  const std::vector<RumorSpec> rumors = {{0, 0}, {7, 2}, {33, 5}};
  TrialArena arena;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expect_same_multi(MultiRumorPushPull(g, rumors, seed, 0, &arena).run(),
                      MultiRumorPushPull(g, rumors, seed).run());
    expect_same_multi(
        MultiRumorVisitExchange(g, rumors, seed, {}, &arena).run(),
        MultiRumorVisitExchange(g, rumors, seed).run());
  }
}

TEST(TrialArena, RunTrialsResultsIndependentOfArenaReuse) {
  const Graph g = gen::circulant(128, 4);
  const ProtocolSpec spec = default_spec(Protocol::visit_exchange);
  const TrialSet first = run_trials(g, spec, 0, 40, 99);
  const TrialSet again = run_trials(g, spec, 0, 40, 99);
  EXPECT_EQ(first.rounds, again.rounds);  // reuse is invisible
  EXPECT_EQ(first.incomplete, again.incomplete);
}

// ---- Zero-allocation steady state ------------------------------------

// Specs arrive as TEXT and dispatch through the SimulatorRegistry — the
// exact path rumor_run takes — so the zero-allocation contract is proven
// for the scenario API, not just for hand-built specs.
void expect_zero_alloc_steady_state(const Graph& g, const char* spec_text,
                                    TrialArena& arena, Vertex source = 0) {
  const auto spec = ProtocolSpec::parse(spec_text);
  ASSERT_TRUE(spec) << spec_text;
  // Warm-up: buffers grow to their high-water mark, the placement cache
  // binds to the graph.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    (void)run_protocol(g, *spec, source, derive_seed(4242, seed), &arena);
  }
  test_alloc::g_allocations.store(0);
  test_alloc::g_count.store(true);
  double acc = 0.0;
  for (std::uint64_t seed = 8; seed < 40; ++seed) {
    acc +=
        run_protocol(g, *spec, source, derive_seed(4242, seed), &arena).rounds;
  }
  test_alloc::g_count.store(false);
  EXPECT_EQ(test_alloc::g_allocations.load(), 0u)
      << "protocol=" << spec_text << " (rounds acc " << acc << ")";
}

TEST(TrialArena, SteadyStateTrialsAllocateNothing) {
  const Graph g = gen::circulant(256, 8);
  TrialArena arena;
  // Default meet-exchange keeps LazyMode::auto_bipartite: resolution reads
  // the graph's memoized property cache, so it no longer allocates.
  for (const char* spec : {"push", "push-pull", "visit-exchange",
                           "meet-exchange", "meet-exchange(lazy=always)",
                           "hybrid", "async",
                           "multi-push-pull(rumors=4,interval=2)",
                           "multi-visit-exchange(rumors=4,interval=2)"}) {
    expect_zero_alloc_steady_state(g, spec, arena);
  }
}

// The acceptance scenario: the Fig. 1(a) star family, leaf source, every
// protocol the figure compares — zero steady-state allocations through the
// registry path.
TEST(TrialArena, Fig1aStarScenarioAllocatesNothingThroughRegistry) {
  const Graph g = gen::star(512);
  TrialArena arena;
  for (const char* spec :
       {"push", "push-pull", "visit-exchange", "meet-exchange"}) {
    expect_zero_alloc_steady_state(g, spec, arena, /*source=*/1);
  }
}

TEST(TrialArena, SteadyStateDynamicAgentTrialsAllocateNothing) {
  const Graph g = gen::circulant(256, 8);
  TrialArena arena;
  // churn exercises respawn + born-this-round marks; spec text exercises
  // the registry path.
  expect_zero_alloc_steady_state(
      g, "dynamic-agent(churn=0.05,loss_round=4,loss_fraction=0.25)", arena);
}

TEST(TrialArena, SteadyStateFrogTrialsAllocateNothing) {
  const Graph g = gen::circulant(256, 8);
  TrialArena arena;
  expect_zero_alloc_steady_state(g, "frog(frogs=2)", arena);
}

// Satellite: the transmission-model field path. The per-vertex receive
// field, the CSR-aligned per-edge field, and the blocked set are cached by
// (graph uid, parameters) in the arena's TransmissionScratch, so repeated
// heterogeneous trials rebuild and allocate nothing.
TEST(TrialArena, HeterogeneousTransmissionSteadyStateAllocatesNothing) {
  const Graph g = gen::circulant(256, 8);
  TrialArena arena;
  for (const char* spec :
       {"push(tp=deg^-0.5)", "push(tp=0.5,stifle=16)",
        "push-pull(tp=0.5,block=0.1)", "visit-exchange(tp=deg^-0.5)",
        "meet-exchange(tp=0.5)", "hybrid(tp=0.5,stifle=16)",
        "frog(frogs=2,tp=0.5)", "dynamic-agent(churn=0.05,tp=0.5)",
        "multi-push-pull(rumors=4,tp=0.5)",
        "multi-visit-exchange(rumors=4,tp=0.5)", "async(tp=0.5)"}) {
    expect_zero_alloc_steady_state(g, spec, arena);
  }
}

TEST(TrialArena, PerEdgeFieldStepPathAllocatesNothing) {
  // The CSR-slot-aligned per-edge field is what the edge-traffic traced
  // contact sites read (attempt_slot); stepping with a warm arena — no
  // result materialization — must be allocation-free.
  const Graph g = gen::circulant(256, 8);
  TrialArena arena;
  PushOptions options;
  options.transmission.degree_scaled = true;
  options.transmission.tp_exponent = -0.5;
  options.trace.edge_traffic = true;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {  // warm the buffers
    PushProcess process(g, 0, seed, options, &arena);
    for (int s = 0; s < 8; ++s) process.step();
  }
  test_alloc::g_allocations.store(0);
  test_alloc::g_count.store(true);
  std::uint64_t acc = 0;
  for (std::uint64_t seed = 4; seed < 12; ++seed) {
    PushProcess process(g, 0, seed, options, &arena);
    for (int s = 0; s < 8; ++s) process.step();
    acc += process.informed_count();
  }
  test_alloc::g_count.store(false);
  EXPECT_EQ(test_alloc::g_allocations.load(), 0u) << "(informed acc " << acc << ")";
}

TEST(TrialArena, SteadyStateMultiRumorTrialsAllocateNothing) {
  const Graph g = gen::circulant(256, 8);
  TrialArena arena;
  const std::vector<RumorSpec> rumors = {{0, 0}, {17, 3}, {99, 6}};
  MultiRumorResult result;  // reused output buffers (run_into)
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    MultiRumorPushPull(g, rumors, seed, 0, &arena).run_into(result);
    MultiRumorVisitExchange(g, rumors, seed, {}, &arena).run_into(result);
  }
  test_alloc::g_allocations.store(0);
  test_alloc::g_count.store(true);
  Round acc = 0;
  for (std::uint64_t seed = 8; seed < 24; ++seed) {
    MultiRumorPushPull pp(g, rumors, seed, 0, &arena);
    pp.run_into(result);
    acc += result.rounds;
    MultiRumorVisitExchange vx(g, rumors, seed, {}, &arena);
    vx.run_into(result);
    acc += result.rounds;
  }
  test_alloc::g_count.store(false);
  EXPECT_EQ(test_alloc::g_allocations.load(), 0u) << "(rounds acc " << acc << ")";
}

// ---- Graph property cache --------------------------------------------

TEST(GraphPropertiesCache, ComputedOnceAndAllocationFreeAfterward) {
  const Graph g = gen::cycle(128);  // even cycle: bipartite
  EXPECT_FALSE(g.properties_cached());
  // First query runs the one-time traversal...
  EXPECT_EQ(resolve_laziness(g, LazyMode::auto_bipartite), Laziness::half);
  EXPECT_TRUE(g.properties_cached());
  // ...and every later resolution is a pure cache hit: no allocations, no
  // BFS scratch.
  test_alloc::g_allocations.store(0);
  test_alloc::g_count.store(true);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(resolve_laziness(g, LazyMode::auto_bipartite), Laziness::half);
  }
  test_alloc::g_count.store(false);
  EXPECT_EQ(test_alloc::g_allocations.load(), 0u);
}

TEST(GraphPropertiesCache, SharedAcrossCopies) {
  const Graph g = gen::cycle(9);  // odd cycle: not bipartite
  (void)g.properties();
  const Graph copy = g;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(copy.properties_cached());
  EXPECT_FALSE(copy.properties().bipartite);
  EXPECT_TRUE(copy.properties().connected);
  EXPECT_TRUE(copy.properties().regular);
}

TEST(TrialArena, RunTrialsSteadyStateAllocationsIndependentOfTrialCount) {
  if (global_pool().worker_count() != 1) {
    GTEST_SKIP() << "deterministic only with a single pool worker";
  }
  const Graph g = gen::circulant(256, 8);
  const ProtocolSpec spec = default_spec(Protocol::visit_exchange);
  (void)run_trials(g, spec, 0, 64, 7);  // warm worker arena + buffers

  auto count_for = [&](std::size_t trials) {
    test_alloc::g_allocations.store(0);
    test_alloc::g_count.store(true);
    (void)run_trials(g, spec, 0, trials, 7);
    test_alloc::g_count.store(false);
    return test_alloc::g_allocations.load();
  };
  const std::size_t small = count_for(8);
  const std::size_t large = count_for(64);
  // Per-call overhead (result vector, one std::function) is allowed; any
  // per-trial allocation would scale the count with the trial count.
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace rumor
