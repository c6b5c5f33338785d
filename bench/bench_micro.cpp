// E17 — engineering microbenchmarks: substrate throughput (wall time, not
// broadcast rounds). These are conventional google-benchmark timings.
//
// The walk-kernel series is the perf contract of the batched stepping
// engine: BM_WalkKernel{Scalar,Batched} measure steps/sec for the checked
// scalar baseline vs. the batched unchecked kernel at n ∈ {2^14, 2^18,
// 2^22} (degree-16 circulant: the pow2 fast path) plus a non-pow2 pair
// (degree-12) isolating the generic Lemire path, and
// BM_WalkKernel{Scalar,Batched}Clique on heavy_binary_tree(2047), n
// stationary walkers nearly all in the 1,024-member leaf clique: the
// irregular draw-ahead loop on rows far wider than a cache line.
// Trajectories are bit-identical across engines, so the comparison is
// pure overhead.
//
// The binary always writes a machine-readable BENCH_micro.json (into
// RUMOR_RESULTS_DIR if set, else the working directory) unless the caller
// passes an explicit --benchmark_out.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/hybrid.hpp"
#include "core/meet_exchange.hpp"
#include "core/push.hpp"
#include "core/visit_exchange.hpp"
#include "experiments/trials.hpp"
#include "graph/generators.hpp"
#include "graph/implicit.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"
#include "walk/agents.hpp"
#include "walk/step_kernel.hpp"

namespace {

using namespace rumor;

// ---- Walk-kernel series ----------------------------------------------

// One step_walks pass over `positions` per iteration, reported as steps/s.
void time_walk_steps(benchmark::State& state, const Graph& g,
                     std::span<Vertex> positions, Rng& rng, Laziness lazy,
                     StepEngine engine) {
  for (auto _ : state) {
    step_walks(g, positions, rng, lazy, engine);
  }
  const auto steps = static_cast<double>(state.iterations()) *
                     static_cast<double>(positions.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
  state.counters["steps_per_sec"] =
      benchmark::Counter(steps, benchmark::Counter::kIsRate);
}

void walk_kernel_bench(benchmark::State& state, std::uint32_t half_degree,
                       Laziness lazy, StepEngine engine) {
  const auto n = static_cast<Vertex>(state.range(0));
  const Graph g = gen::circulant(n, half_degree);
  Rng rng(1);
  std::vector<Vertex> positions(n);
  for (Vertex v = 0; v < n; ++v) positions[v] = v;
  time_walk_steps(state, g, positions, rng, lazy, engine);
}

void BM_WalkKernelScalar(benchmark::State& state) {
  walk_kernel_bench(state, 8, Laziness::none, StepEngine::scalar_checked);
}
BENCHMARK(BM_WalkKernelScalar)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 22);

void BM_WalkKernelBatched(benchmark::State& state) {
  walk_kernel_bench(state, 8, Laziness::none, StepEngine::batched);
}
BENCHMARK(BM_WalkKernelBatched)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 22);

void BM_WalkKernelScalarNonPow2(benchmark::State& state) {
  walk_kernel_bench(state, 6, Laziness::none, StepEngine::scalar_checked);
}
BENCHMARK(BM_WalkKernelScalarNonPow2)->Arg(1 << 14)->Arg(1 << 18);

void BM_WalkKernelBatchedNonPow2(benchmark::State& state) {
  walk_kernel_bench(state, 6, Laziness::none, StepEngine::batched);
}
BENCHMARK(BM_WalkKernelBatchedNonPow2)->Arg(1 << 14)->Arg(1 << 18);

void BM_WalkKernelScalarLazy(benchmark::State& state) {
  walk_kernel_bench(state, 8, Laziness::half, StepEngine::scalar_checked);
}
BENCHMARK(BM_WalkKernelScalarLazy)->Arg(1 << 14)->Arg(1 << 18);

void BM_WalkKernelBatchedLazy(benchmark::State& state) {
  walk_kernel_bench(state, 8, Laziness::half, StepEngine::batched);
}
BENCHMARK(BM_WalkKernelBatchedLazy)->Arg(1 << 14)->Arg(1 << 18);

// Heavy binary tree: the irregular CSR loop. One step per walker, n
// walkers placed from the stationary distribution (so nearly all start in
// the leaf clique, as in the paper's heavy-tree trials).
void walk_kernel_clique_bench(benchmark::State& state, StepEngine engine) {
  const auto n = static_cast<Vertex>(state.range(0));
  const Graph g = gen::heavy_binary_tree(n);
  Rng rng(1);
  AgentSystem agents(g, n, Placement::stationary, rng);
  time_walk_steps(state, g, agents.positions_mut(), rng, Laziness::none,
                  engine);
}

void BM_WalkKernelScalarClique(benchmark::State& state) {
  walk_kernel_clique_bench(state, StepEngine::scalar_checked);
}
BENCHMARK(BM_WalkKernelScalarClique)->Arg(2047);

void BM_WalkKernelBatchedClique(benchmark::State& state) {
  walk_kernel_clique_bench(state, StepEngine::batched);
}
BENCHMARK(BM_WalkKernelBatchedClique)->Arg(2047);

// ---- Width-1 sharded vs serial walk step ------------------------------
//
// The gate pair for a width-1 sharded round at serial cost: one walk step
// per agent, one agent per vertex, on a degree-15 random regular graph
// (odd degree: the Lemire draw and the CSR prefetch pipeline, not the
// pow2 shift) at 2^14 vertices (cache-resident) and 2^22 (DRAM).
// BM_WalkStepSerial runs the serial batched kernel on its xoshiro stream;
// BM_WalkStepSharded1 runs step_walks_sharded at width 1 on a 1-worker
// pool, so the ratio is the draw scheme and the kernel, not the fan-out.

const Graph& regular15(Vertex n) {
  static std::map<Vertex, Graph> graphs;
  auto it = graphs.find(n);
  if (it == graphs.end()) {
    Rng rng(15);
    it = graphs.emplace(n, gen::random_regular(n, 15, rng)).first;
  }
  return it->second;
}

void walk_step_bench(benchmark::State& state, bool sharded) {
  const auto n = static_cast<Vertex>(state.range(0));
  const Graph& g = regular15(n);
  std::vector<Vertex> positions(n);
  for (Vertex v = 0; v < n; ++v) positions[v] = v;
  ThreadPool pool(1);
  ThreadPool* prev = set_shard_pool(&pool);
  Rng rng(1);
  std::uint64_t round = 0;
  for (auto _ : state) {
    if (sharded) {
      step_walks_sharded(g, positions, /*trial_seed=*/7, ++round,
                         Laziness::none, /*shards=*/1);
    } else {
      step_walks(g, positions, rng, Laziness::none);
    }
    benchmark::DoNotOptimize(positions.data());
    benchmark::ClobberMemory();
  }
  set_shard_pool(prev);
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["steps_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n, benchmark::Counter::kIsRate);
}

void BM_WalkStepSerial(benchmark::State& state) {
  walk_step_bench(state, false);
}
BENCHMARK(BM_WalkStepSerial)->Arg(1 << 14)->Arg(1 << 22);

void BM_WalkStepSharded1(benchmark::State& state) {
  walk_step_bench(state, true);
}
BENCHMARK(BM_WalkStepSharded1)->Arg(1 << 14)->Arg(1 << 22);

// ---- Substrate series (pre-engine micro set) --------------------------

void BM_AgentStepThroughput(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  Rng rng(1);
  const Graph g = gen::random_regular(n, 16, rng);
  AgentSystem agents(g, n, Placement::stationary, rng);
  for (auto _ : state) {
    agents.step_all(rng, Laziness::none);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AgentStepThroughput)->Arg(1 << 12)->Arg(1 << 16);

void BM_GraphGenRandomRegular(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::random_regular(n, 16, rng));
  }
}
BENCHMARK(BM_GraphGenRandomRegular)->Arg(1 << 12)->Arg(1 << 14);

void BM_GraphGenHeavyTree(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::heavy_binary_tree(n));
  }
}
BENCHMARK(BM_GraphGenHeavyTree)->Arg(1 << 10)->Arg(1 << 12);

void BM_PushBroadcastCompleteGraph(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  const Graph g = gen::complete(n);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_push(g, 0, ++seed));
  }
}
BENCHMARK(BM_PushBroadcastCompleteGraph)->Arg(1 << 10)->Arg(1 << 12);

void BM_PushTrialArenaSteadyState(benchmark::State& state) {
  // Per-trial cost with a reused arena — the run_trials steady state.
  const auto n = static_cast<Vertex>(state.range(0));
  const Graph g = gen::circulant(n, 8);
  TrialArena arena;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PushProcess(g, 0, ++seed, {}, &arena).run());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PushTrialArenaSteadyState)->Arg(1 << 10)->Arg(1 << 14);

void BM_PushTrialArenaFreshAlloc(benchmark::State& state) {
  // Same trial without a lent arena: the process owns (and allocates) its
  // buffers every run — the pre-arena shape. The SteadyState/FreshAlloc
  // trials/sec ratio is the arena-reuse contract compare_bench.py gates
  // (machine-independent: same code, same trajectories, allocation and
  // zeroing cost is the only difference).
  const auto n = static_cast<Vertex>(state.range(0));
  const Graph g = gen::circulant(n, 8);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PushProcess(g, 0, ++seed, {}, nullptr).run());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PushTrialArenaFreshAlloc)->Arg(1 << 10)->Arg(1 << 14);

// The allocation-dominated regime: push-pull on the star completes in ~2
// rounds, so per-trial O(n) buffer allocation + zeroing is a constant
// fraction of the whole trial and arena reuse shows as a measurable
// (~1.1-1.5x, allocator-dependent) trials/sec win (vs ~1.0x for the
// long circulant broadcasts above,
// where simulation work swamps setup). Both ratios are gated: the star
// pair contracts "arena reuse keeps winning where allocation matters",
// the circulant pair "the arena path adds no overhead where it doesn't".
void push_pull_star_trial_arena_bench(benchmark::State& state, TrialArena* arena) {
  const auto n = static_cast<Vertex>(state.range(0));
  const Graph g = gen::star(n);
  const ProtocolSpec spec = default_spec(Protocol::push_pull);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_protocol(g, spec, 1, ++seed, arena));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_PushPullStarTrialArenaSteadyState(benchmark::State& state) {
  TrialArena arena;
  push_pull_star_trial_arena_bench(state, &arena);
}
BENCHMARK(BM_PushPullStarTrialArenaSteadyState)->Arg(1 << 14);

void BM_PushPullStarTrialArenaFreshAlloc(benchmark::State& state) {
  push_pull_star_trial_arena_bench(state, nullptr);
}
BENCHMARK(BM_PushPullStarTrialArenaFreshAlloc)->Arg(1 << 14);

void BM_VisitExchangeRound(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  Rng rng(3);
  const Graph g = gen::random_regular(n, 16, rng);
  VisitExchangeProcess process(g, 0, 7);
  for (auto _ : state) {
    process.step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_VisitExchangeRound)->Arg(1 << 12)->Arg(1 << 16);

// ---- run_protocol dispatch series -------------------------------------
//
// Registry-path vs direct-construction throughput for one arena-backed
// trial. The Registry/Direct ratio (≈1.0) is the dispatch-overhead
// contract of the scenario API: like the batched/scalar walk-kernel
// pairs it is machine-independent, so bench/compare_bench.py gates on it
// in CI. Trajectories are identical by construction (same simulator, same
// seed), making the comparison pure dispatch overhead.

void run_protocol_trial_bench(benchmark::State& state, bool registry_path,
                              bool walks) {
  const auto n = static_cast<Vertex>(state.range(0));
  const Graph g = gen::circulant(n, 8);
  const ProtocolSpec spec =
      default_spec(walks ? Protocol::visit_exchange : Protocol::push);
  TrialArena arena;
  std::uint64_t seed = 0;
  double acc = 0.0;
  for (auto _ : state) {
    if (registry_path) {
      acc += run_protocol(g, spec, 0, ++seed, &arena).rounds;
    } else if (walks) {
      acc += static_cast<double>(
          VisitExchangeProcess(g, 0, ++seed, std::get<WalkOptions>(spec.options),
                               &arena)
              .run()
              .rounds);
    } else {
      acc += static_cast<double>(
          PushProcess(g, 0, ++seed, std::get<PushOptions>(spec.options),
                      &arena)
              .run()
              .rounds);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}

void BM_RunProtocolDirectPush(benchmark::State& state) {
  run_protocol_trial_bench(state, /*registry_path=*/false, /*walks=*/false);
}
BENCHMARK(BM_RunProtocolDirectPush)->Arg(1 << 10)->Arg(1 << 14);

void BM_RunProtocolRegistryPush(benchmark::State& state) {
  run_protocol_trial_bench(state, /*registry_path=*/true, /*walks=*/false);
}
BENCHMARK(BM_RunProtocolRegistryPush)->Arg(1 << 10)->Arg(1 << 14);

void BM_RunProtocolDirectVisitX(benchmark::State& state) {
  run_protocol_trial_bench(state, /*registry_path=*/false, /*walks=*/true);
}
BENCHMARK(BM_RunProtocolDirectVisitX)->Arg(1 << 10)->Arg(1 << 14);

void BM_RunProtocolRegistryVisitX(benchmark::State& state) {
  run_protocol_trial_bench(state, /*registry_path=*/true, /*walks=*/true);
}
BENCHMARK(BM_RunProtocolRegistryVisitX)->Arg(1 << 10)->Arg(1 << 14);

// ---- Transmission-model series -----------------------------------------
//
// Uniform = the default push spec: tp=1, no interventions, i.e. the
// compile-time `transmission::Uniform` fast path whose attempt() folds
// away — trajectories are byte-identical to the pre-transmission engine.
// Heterogeneous = degree-scaled receive probabilities (tp=deg^-0.5)
// through the General instantiation: per-vertex field reads plus one
// success draw per state-changing delivery. Same graph, same seeds; the
// Uniform/Heterogeneous trials/sec ratio is the fast-path contract
// compare_bench.py gates (machine-independent): if the Uniform series
// slows down relative to the General one — e.g. a homogeneous-path branch
// or draw sneaks into the inner loop — the ratio drops and CI fails.

void push_transmission_bench(benchmark::State& state, const char* spec_text) {
  const auto n = static_cast<Vertex>(state.range(0));
  const Graph g = gen::circulant(n, 8);
  const auto spec = ProtocolSpec::parse(spec_text);
  TrialArena arena;
  std::uint64_t seed = 0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += run_protocol(g, *spec, 0, ++seed, &arena).rounds;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}

void BM_PushTransmissionUniform(benchmark::State& state) {
  push_transmission_bench(state, "push");
}
BENCHMARK(BM_PushTransmissionUniform)->Arg(1 << 10)->Arg(1 << 14);

void BM_PushTransmissionHeterogeneous(benchmark::State& state) {
  push_transmission_bench(state, "push(tp=deg^-0.5)");
}
BENCHMARK(BM_PushTransmissionHeterogeneous)->Arg(1 << 10)->Arg(1 << 14);

// Walk-layer twin of the series above: visit-exchange on the Fig 1a star,
// the graph where the paper separates push from visit-exchange. Uniform is
// the default spec (tp=1 trivial model, zero per-visit transmission work);
// Heterogeneous is a constant tp=0.5 field — on the star deg^-0.5 would
// collapse the leaf probabilities to near-zero and turn every trial into a
// round-cutoff crawl, so the flat field is the honest walk-side measure of
// per-delivery skip-sampling overhead. Same gate shape as the push pair:
// compare_bench.py bounds the Uniform/Heterogeneous trials/sec ratio drift
// and caps the baseline ratio.
void walk_transmission_bench(benchmark::State& state, const char* spec_text) {
  const auto n = static_cast<Vertex>(state.range(0));
  const Graph g = gen::star(n);
  const auto spec = ProtocolSpec::parse(spec_text);
  TrialArena arena;
  std::uint64_t seed = 0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += run_protocol(g, *spec, 0, ++seed, &arena).rounds;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}

void BM_WalkTransmissionUniform(benchmark::State& state) {
  walk_transmission_bench(state, "visit-exchange");
}
BENCHMARK(BM_WalkTransmissionUniform)->Arg(1 << 10)->Arg(1 << 12);

void BM_WalkTransmissionHeterogeneous(benchmark::State& state) {
  walk_transmission_bench(state, "visit-exchange(tp=0.5)");
}
BENCHMARK(BM_WalkTransmissionHeterogeneous)->Arg(1 << 10)->Arg(1 << 12);

// ---- Graph-backend series ----------------------------------------------
//
// Implicit (arithmetic adjacency) vs owned (materialized CSR) push trials
// on the same torus: trajectories are bit-identical — the implicit
// accessors reproduce the sorted CSR neighbor order slot-for-slot — so
// the Implicit/Owned trials/sec ratio is pure dispatch overhead (one
// backend branch plus the closed-form arithmetic per accessor against an
// array load). compare_bench.py gates the ratio: a drop means the
// implicit dispatch grew per-access work, which would silently tax every
// large-n implicit scenario.

void graph_backend_bench(benchmark::State& state, bool implicit_backend) {
  const auto rows = static_cast<Vertex>(state.range(0));
  const Graph g = [&] {
    if (implicit_backend) {
      ImplicitDesc desc;
      RUMOR_REQUIRE(
          make_implicit_desc(ImplicitKind::torus, rows, rows, desc));
      return Graph::make_implicit(desc);
    }
    return gen::torus2d(rows, rows);
  }();
  const auto spec = ProtocolSpec::parse("push");
  TrialArena arena;
  std::uint64_t seed = 0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += run_protocol(g, *spec, 0, ++seed, &arena).rounds;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}

void BM_GraphBackendImplicitPush(benchmark::State& state) {
  graph_backend_bench(state, /*implicit_backend=*/true);
}
BENCHMARK(BM_GraphBackendImplicitPush)->Arg(1 << 5)->Arg(1 << 7);

void BM_GraphBackendOwnedPush(benchmark::State& state) {
  graph_backend_bench(state, /*implicit_backend=*/false);
}
BENCHMARK(BM_GraphBackendOwnedPush)->Arg(1 << 5)->Arg(1 << 7);

// ---- Cross-scenario scheduler series -----------------------------------
//
// A mixed-tail experiment file: long-tail push-on-star scenarios (coupon
// collector, hundreds of rounds) alternating with quick visit-exchange
// scenarios, every scenario with fewer trials than workers — the sweep
// shape, where per-scenario barriers idle most of the pool on each
// long-tail point. Barrier = one run_trial_batches call per scenario in
// sequence (the pre-sweep run_scenarios); Interleaved = ONE call draining
// all scenarios through the global (scenario, trial) queue. Same trials,
// same seeds, identical sample vectors — wall clock is the only
// difference, so the Interleaved/Barrier scenarios/sec ratio is the
// scheduling contract: ~1.0 on a single core (the shared queue costs
// nothing) and >1 with real parallelism (~2x at 4 cores). A fixed 4-worker
// pool keeps the ratio comparable across machines; compare_bench.py gates
// it with a widened threshold for core-count variation.

void scheduler_bench(benchmark::State& state, bool interleaved) {
  constexpr std::size_t kScenarios = 8;
  constexpr std::size_t kTrials = 2;
  const Graph slow_g = gen::star(512);
  const Graph fast_g = gen::circulant(512, 4);
  const ProtocolSpec slow_spec = default_spec(Protocol::push);
  const ProtocolSpec fast_spec = default_spec(Protocol::visit_exchange);
  ThreadPool pool(4);
  std::vector<TrialSet> sets(kScenarios);
  std::vector<TrialBatch> batches(kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    const bool slow = i % 2 == 0;
    batches[i].graph = slow ? &slow_g : &fast_g;
    batches[i].protocol = slow ? &slow_spec : &fast_spec;
    batches[i].source = slow ? 1 : 0;  // leaf source = push's hard case
    batches[i].trials = kTrials;
    batches[i].master_seed = 100 + i;
    batches[i].out = &sets[i];
  }
  for (auto _ : state) {
    if (interleaved) {
      run_trial_batches(batches, {}, &pool);
    } else {
      for (const TrialBatch& batch : batches) {
        run_trial_batches({batch}, {}, &pool);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kScenarios);
}

// UseRealTime: the work happens on pool threads, so the main thread's CPU
// clock (the default rate denominator) would measure only its own
// blocking overhead.
void BM_SchedulerBarrier(benchmark::State& state) {
  scheduler_bench(state, /*interleaved=*/false);
}
BENCHMARK(BM_SchedulerBarrier)->UseRealTime();

void BM_SchedulerInterleaved(benchmark::State& state) {
  scheduler_bench(state, /*interleaved=*/true);
}
BENCHMARK(BM_SchedulerInterleaved)->UseRealTime();

// ---- Frontier-sharded round series -------------------------------------
//
// One trial on the whole pool: the 10^7-leaf implicit star (O(1) graph
// memory, so the benchmark measures kernels, not allocation). The 1/K
// pairs run the SAME sharded engine — identical trajectories by
// construction — at width 1 vs. width 4 on a fixed 4-worker pool, so the
// K/1 ratio isolates what the range fan-out buys. Like the scheduler
// series the ratio is ~1.0 on a single core (fan-out costs nothing but
// buys nothing) and >=2.5 with 4 real cores; compare_bench.py gates it
// with the widened cross-machine threshold.
//
// BM_ShardedPush: a trial's dominant cost on the star is the hub's
// informed-neighbor bump (10^7 counter adds inside inform()), the
// parallel-bump path for deg >= 2^16. BM_ShardedWalk: one sharded kernel
// pass over 10^7 walkers, per-slot Philox draws.

constexpr std::uint64_t kHugeStarLeaves = 10'000'000;
constexpr Round kShardedPushRounds = 4;

const Graph& huge_star() {
  static const Graph g = [] {
    ImplicitDesc desc;
    std::string why;
    RUMOR_REQUIRE(
        make_implicit_desc(ImplicitKind::star, kHugeStarLeaves, 0, desc, &why));
    return Graph::make_implicit(desc);
  }();
  return g;
}

void sharded_push_bench(benchmark::State& state, std::uint32_t shards) {
  const Graph& g = huge_star();
  ThreadPool pool(4);
  ThreadPool* prev = set_shard_pool(&pool);
  PushOptions opt;
  opt.shards = shards;
  opt.max_rounds = kShardedPushRounds;
  TrialArena arena;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    PushProcess p(g, 0, seed++, opt, &arena);
    benchmark::DoNotOptimize(p.run().informed);
  }
  set_shard_pool(prev);
  state.SetItemsProcessed(state.iterations() * kShardedPushRounds);
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kShardedPushRounds,
      benchmark::Counter::kIsRate);
}

void BM_ShardedPush1(benchmark::State& state) { sharded_push_bench(state, 1); }
BENCHMARK(BM_ShardedPush1)->UseRealTime();

void BM_ShardedPushK(benchmark::State& state) { sharded_push_bench(state, 4); }
BENCHMARK(BM_ShardedPushK)->UseRealTime();

void sharded_walk_bench(benchmark::State& state, std::uint32_t shards) {
  const Graph& g = huge_star();
  const auto n = g.num_vertices();
  ThreadPool pool(4);
  ThreadPool* prev = set_shard_pool(&pool);
  std::vector<Vertex> positions(n);
  for (Vertex v = 0; v < n; ++v) positions[v] = v;
  std::uint64_t round = 0;
  for (auto _ : state) {
    step_walks_sharded(g, positions, /*trial_seed=*/7, ++round,
                       Laziness::none, shards);
  }
  set_shard_pool(prev);
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["steps_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n, benchmark::Counter::kIsRate);
}

void BM_ShardedWalk1(benchmark::State& state) { sharded_walk_bench(state, 1); }
BENCHMARK(BM_ShardedWalk1)->UseRealTime();

void BM_ShardedWalkK(benchmark::State& state) { sharded_walk_bench(state, 4); }
BENCHMARK(BM_ShardedWalkK)->UseRealTime();

// BM_ShardedMeet / BM_ShardedHybrid: whole sharded trials of the two
// simulators this series now covers — 10^7 + 1 agents (one per vertex)
// stepping on the huge star for kShardedPushRounds rounds. The process
// constructor (parallel placement and round-0 seeding passes, plus O(1)
// arena resets) runs under PauseTiming, so the timed region is exactly
// the sharded round loop (walk kernel + mark/meet or push/pull/agent
// passes + hybrid's serial merges).

void sharded_meet_bench(benchmark::State& state, std::uint32_t shards) {
  const Graph& g = huge_star();
  ThreadPool pool(4);
  ThreadPool* prev = set_shard_pool(&pool);
  WalkOptions opt = MeetExchangeProcess::default_options();
  opt.shards = shards;
  opt.max_rounds = kShardedPushRounds;
  opt.placement = Placement::one_per_vertex;
  opt.agent_count = g.num_vertices();
  TrialArena arena;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    MeetExchangeProcess p(g, 0, seed++, opt, &arena);
    state.ResumeTiming();
    benchmark::DoNotOptimize(p.run().informed);
  }
  set_shard_pool(prev);
  state.SetItemsProcessed(state.iterations() * kShardedPushRounds);
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kShardedPushRounds,
      benchmark::Counter::kIsRate);
}

void BM_ShardedMeet1(benchmark::State& state) { sharded_meet_bench(state, 1); }
BENCHMARK(BM_ShardedMeet1)->UseRealTime();

void BM_ShardedMeetK(benchmark::State& state) { sharded_meet_bench(state, 4); }
BENCHMARK(BM_ShardedMeetK)->UseRealTime();

void sharded_hybrid_bench(benchmark::State& state, std::uint32_t shards) {
  const Graph& g = huge_star();
  ThreadPool pool(4);
  ThreadPool* prev = set_shard_pool(&pool);
  WalkOptions opt;
  opt.shards = shards;
  opt.max_rounds = kShardedPushRounds;
  opt.placement = Placement::one_per_vertex;
  opt.agent_count = g.num_vertices();
  TrialArena arena;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    HybridProcess p(g, 0, seed++, opt, &arena);
    state.ResumeTiming();
    benchmark::DoNotOptimize(p.run().informed);
  }
  set_shard_pool(prev);
  state.SetItemsProcessed(state.iterations() * kShardedPushRounds);
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kShardedPushRounds,
      benchmark::Counter::kIsRate);
}

void BM_ShardedHybrid1(benchmark::State& state) {
  sharded_hybrid_bench(state, 1);
}
BENCHMARK(BM_ShardedHybrid1)->UseRealTime();

void BM_ShardedHybridK(benchmark::State& state) {
  sharded_hybrid_bench(state, 4);
}
BENCHMARK(BM_ShardedHybridK)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    // Exact flag (or --benchmark_out=path); must not match
    // --benchmark_out_format, which alone should still get the default
    // JSON artifact.
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
        std::strcmp(argv[i], "--benchmark_out") == 0) {
      has_out = true;
    }
  }
  std::string out_flag;
  std::string format_flag;
  if (!has_out) {
    std::string path = "BENCH_micro.json";
    if (const char* dir = std::getenv("RUMOR_RESULTS_DIR")) {
      path = std::string(dir) + "/" + path;
    }
    out_flag = "--benchmark_out=" + path;
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
