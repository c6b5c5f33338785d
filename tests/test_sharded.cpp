// Frontier-sharded round engine tests.
//
// The contract under test (core/sharding): within the sharded engine the
// trajectory depends only on the trial seed — never on the shard count,
// the worker count, or the storage backend — because every random
// decision draws from an addressable per-(phase, slot) Philox chain and
// every write is a merge in global slot order, an idempotent claim, or
// owned by its slot's agent. shards=1 is the serial reference; 2/4/7-way
// runs and 64-way runs (shards=auto's partition count on four workers)
// must reproduce it byte for byte.
// Also covered: the allocation-free parallel_for_ranges primitive, the
// nested-fan-out flattening rule, zero steady-state allocations per
// trial, the two-axis trial schedule, and the scenario-level rejection of
// the incompatible option combinations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_probe.hpp"
#include "core/hybrid.hpp"
#include "core/meet_exchange.hpp"
#include "core/push.hpp"
#include "core/push_pull.hpp"
#include "core/sharding.hpp"
#include "core/visit_exchange.hpp"
#include "experiments/scenario.hpp"
#include "experiments/trials.hpp"
#include "graph/generators.hpp"
#include "graph/implicit.hpp"
#include "support/philox.hpp"
#include "support/thread_pool.hpp"
#include "support/trial_arena.hpp"

namespace rumor {
namespace {

// ---- parallel_for_ranges -----------------------------------------------

TEST(ThreadPoolRanges, ShardRangePartitionsExactly) {
  for (const std::size_t count : {0u, 1u, 5u, 64u, 1000u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
      std::size_t expect_begin = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto [begin, end] = ThreadPool::shard_range(count, shards, s);
        EXPECT_EQ(begin, expect_begin) << count << "/" << shards << "#" << s;
        EXPECT_GE(end, begin);
        // Balanced: range sizes differ by at most one.
        EXPECT_LE(end - begin, count / shards + 1);
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, count);
    }
  }
}

TEST(ThreadPoolRanges, CoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_ranges(1000, 4, [&](std::size_t /*shard*/,
                                        std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolRanges, ClampsShardsAndHandlesEmpty) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for_ranges(0, 4, [&](std::size_t, std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
  // More shards than items: clamped to one shard per item.
  std::vector<std::atomic<int>> hits(3);
  std::atomic<int> shards_seen{0};
  pool.parallel_for_ranges(
      3, 16, [&](std::size_t, std::size_t begin, std::size_t end) {
        shards_seen.fetch_add(1);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
  EXPECT_EQ(shards_seen.load(), 3);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolRanges, NestedFanOutFlattensInline) {
  // A worker of the pool issuing parallel_for_ranges against the SAME pool
  // must not deadlock or re-enter the queue: the call runs inline.
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(6, [&](std::size_t) {
    pool.parallel_for_ranges(
        100, 4, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) sum.fetch_add(i);
        });
  });
  EXPECT_EQ(sum.load(), 6u * (100u * 99u / 2));
}

TEST(ThreadPoolRanges, NestedParallelForFlattensInline) {
  ThreadPool pool(3);
  std::atomic<std::size_t> count{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(25, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPoolRanges, AtMostWorkerCountThreadsRunAJob) {
  // Many more ranges than workers, from a thread outside the pool: the
  // caller joins in, so only worker_count() - 1 workers may, and no more
  // than worker_count() threads are ever inside the callback at once.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(48);
  std::atomic<int> inside{0};
  std::atomic<int> most{0};
  pool.parallel_for_ranges(
      48, 48, [&](std::size_t, std::size_t begin, std::size_t end) {
        const int now = inside.fetch_add(1) + 1;
        int seen = most.load();
        while (now > seen && !most.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        inside.fetch_sub(1);
      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(most.load(), 1);
  EXPECT_LE(most.load(), 3);
}

TEST(ThreadPoolRanges, ReusableAndConcurrentWithTasks) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for_ranges(
        257, 4, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) sum.fetch_add(i);
        });
    ASSERT_EQ(sum.load(), 257u * 256u / 2);
  }
}

// ---- SlotDraws addressability ------------------------------------------

TEST(ShardDraws, SlotChainsAreAddressableAndDisjoint) {
  const ShardPlane plane(/*trial_seed=*/42, /*round=*/7);
  // Re-opening the same (phase, slot) replays the identical chain — the
  // property that makes the trajectory independent of the partition.
  SlotDraws a(plane, kShardPhasePush, 3);
  std::vector<std::uint32_t> first;
  for (int i = 0; i < 9; ++i) first.push_back(a.next_u32());
  SlotDraws b(plane, kShardPhasePush, 3);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(b.next_u32(), first[i]);
  // Different slot or phase: a different chain.
  SlotDraws c(plane, kShardPhasePush, 4);
  SlotDraws d(plane, kShardPhasePull, 3);
  EXPECT_NE(c.next_u32(), first[0]);
  EXPECT_NE(d.next_u32(), first[0]);
  // Different round: a different plane entirely.
  const ShardPlane plane2(42, 8);
  SlotDraws e(plane2, kShardPhasePush, 3);
  EXPECT_NE(e.next_u32(), first[0]);
}

// ---- Spec grammar ------------------------------------------------------

TEST(ShardSpec, RoundTripsAndRejects) {
  for (const char* text :
       {"push(shards=auto)", "push(shards=4)", "push-pull(shards=2)",
        "visit-exchange(shards=7)", "meet-exchange(shards=2)",
        "hybrid(shards=auto)"}) {
    std::string error;
    const auto spec = ProtocolSpec::parse(text, &error);
    ASSERT_TRUE(spec) << text << ": " << error;
    EXPECT_EQ(spec->name(), text);
    EXPECT_NE(spec->shards(), 0u);
  }
  // 0 is not a spelling (absent is the only legacy form); the walk-shared
  // protocols that do not implement the engine reject the key outright.
  EXPECT_FALSE(ProtocolSpec::parse("push(shards=0)"));
  EXPECT_FALSE(ProtocolSpec::parse("push(shards=-1)"));
  EXPECT_FALSE(ProtocolSpec::parse("frog(shards=2)"));
  EXPECT_FALSE(ProtocolSpec::parse("dynamic-agent(shards=2)"));
  // Default specs stay bare: no shards= key leaks into canonical text.
  EXPECT_EQ(ProtocolSpec::parse("push")->name(), "push");
  EXPECT_EQ(ProtocolSpec::parse("push")->shards(), 0u);
}

TEST(ShardSpec, EnginePolicyIsPureInItsInputs) {
  EXPECT_FALSE(sharding_enabled(0, 1));
  EXPECT_FALSE(sharding_enabled(0, std::uint64_t{1} << 40));
  EXPECT_TRUE(sharding_enabled(1, 1));
  EXPECT_TRUE(sharding_enabled(7, 16));
  EXPECT_FALSE(sharding_enabled(kShardsAuto, kShardAutoThreshold - 1));
  EXPECT_TRUE(sharding_enabled(kShardsAuto, kShardAutoThreshold));
}

TEST(ShardSpec, AutoWidthCutsPartitionsPerWorker) {
  ThreadPool four(4);
  ThreadPool one(1);
  ThreadPool* prev = set_shard_pool(&four);
  EXPECT_EQ(resolve_shard_width(kShardsAuto), 4 * kShardPartitionsPerWorker);
  EXPECT_EQ(resolve_shard_width(7), 7u);
  set_shard_pool(&one);
  EXPECT_EQ(resolve_shard_width(kShardsAuto), 1u);
  set_shard_pool(prev);
}

TEST(ShardSpec, ScenarioValidationRejectsIncompatibleCombos) {
  // No trace a scenario can ask for needs the serial engine: a sharded
  // line with the one trace key passes validation.
  std::string error;
  const auto ok =
      ScenarioSpec::parse("cycle(n=64) push(shards=2,curve=on)", &error);
  ASSERT_TRUE(ok) << error;
  EXPECT_TRUE(validate_scenarios({*ok}, &error)) << error;
}

// ---- Sharded-vs-serial trajectories ------------------------------------

// Full-trajectory equality: broadcast time, final count, per-round curve,
// and the per-vertex inform rounds (per-agent too where present) — the
// strongest observable trajectory the simulators expose.
void expect_same_result(const RunResult& a, const RunResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.agent_rounds, b.agent_rounds) << what;
  EXPECT_EQ(a.informed, b.informed) << what;
  EXPECT_EQ(a.informed_curve, b.informed_curve) << what;
  EXPECT_EQ(a.vertex_inform_round, b.vertex_inform_round) << what;
  EXPECT_EQ(a.agent_inform_round, b.agent_inform_round) << what;
}

constexpr std::uint32_t kShardCounts[] = {2, 4, 7,
                                          4 * kShardPartitionsPerWorker};

RunResult run_push_shards(const Graph& g, std::uint64_t seed,
                          std::uint32_t shards, float tp) {
  PushOptions opt;
  opt.shards = shards;
  opt.transmission.tp = tp;
  opt.trace.informed_curve = true;
  opt.trace.inform_rounds = true;
  return run_push(g, 0, seed, opt);
}

TEST(ShardedPush, TrajectoryIndependentOfShardCount) {
  const Graph graphs[] = {gen::cycle(96), gen::complete(48),
                          gen::heavy_binary_tree(63)};
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const RunResult ref = run_push_shards(g, seed, 1, 1.0f);
      ASSERT_TRUE(ref.completed);
      for (const std::uint32_t shards : kShardCounts) {
        expect_same_result(ref, run_push_shards(g, seed, shards, 1.0f),
                           "push shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ShardedPush, HeterogeneousAndLossyTrajectoriesMatch) {
  // tp = 0.7 with independent message loss 0.2: tp = 0.56.
  const Graph g = gen::circulant(128, 6);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const RunResult ref = run_push_shards(g, seed, 1, 0.56f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_push_shards(g, seed, shards, 0.56f),
                         "lossy push shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardedPush, ImplicitAndOwnedBackendsAgree) {
  // Same structure, different storage: the sharded engine must not care.
  const auto spec_imp = GraphSpec::parse("star(leaves=512)");
  const auto spec_own = GraphSpec::parse("star(leaves=512,backend=owned)");
  ASSERT_TRUE(spec_imp && spec_own);
  Rng rng(1);
  const Graph imp = spec_imp->make(rng);
  const Graph own = spec_own->make(rng);
  ASSERT_TRUE(imp.is_implicit());
  ASSERT_FALSE(own.is_implicit());
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const RunResult ref = run_push_shards(imp, seed, 1, 1.0f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_push_shards(own, seed, shards, 1.0f),
                         "backend shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardedPush, HubBumpPathMatchesAtHugeDegree) {
  // A star hub at deg >= 1<<16 takes the parallel informed-neighbor bump
  // inside inform(); the counters it feeds must come out identical to the
  // serial bump. Bounded rounds keep the Theta(n log n) star run cheap.
  const auto spec = GraphSpec::parse("star(leaves=65536)");
  ASSERT_TRUE(spec);
  Rng rng(1);
  const Graph g = spec->make(rng);
  PushOptions opt;
  opt.shards = 1;
  opt.max_rounds = 6;
  opt.trace.informed_curve = true;
  opt.trace.inform_rounds = true;
  const RunResult ref = run_push(g, 0, 11, opt);
  EXPECT_FALSE(ref.completed);
  for (const std::uint32_t shards : kShardCounts) {
    opt.shards = shards;
    expect_same_result(ref, run_push(g, 0, 11, opt),
                       "hub bump shards=" + std::to_string(shards));
  }
}

RunResult run_push_pull_shards(const Graph& g, std::uint64_t seed,
                               std::uint32_t shards, float tp) {
  PushPullOptions opt;
  opt.shards = shards;
  opt.transmission.tp = tp;
  opt.trace.informed_curve = true;
  opt.trace.inform_rounds = true;
  return run_push_pull(g, 0, seed, opt);
}

TEST(ShardedPushPull, TrajectoryIndependentOfShardCount) {
  const Graph graphs[] = {gen::cycle(96), gen::star(64),
                          gen::heavy_binary_tree(63)};
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const RunResult ref = run_push_pull_shards(g, seed, 1, 1.0f);
      ASSERT_TRUE(ref.completed);
      for (const std::uint32_t shards : kShardCounts) {
        expect_same_result(
            ref, run_push_pull_shards(g, seed, shards, 1.0f),
            "push-pull shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ShardedPushPull, HeterogeneousAndLossyTrajectoriesMatch) {
  // tp = 0.6 with independent message loss 0.15: tp = 0.51.
  const Graph g = gen::circulant(128, 6);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const RunResult ref = run_push_pull_shards(g, seed, 1, 0.51f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(
          ref, run_push_pull_shards(g, seed, shards, 0.51f),
          "lossy push-pull shards=" + std::to_string(shards));
    }
  }
}

RunResult run_visitx_shards(const Graph& g, std::uint64_t seed,
                            std::uint32_t shards, float tp) {
  WalkOptions opt;
  opt.shards = shards;
  opt.transmission.tp = tp;
  opt.trace.informed_curve = true;
  opt.trace.inform_rounds = true;
  return run_visit_exchange(g, 0, seed, opt);
}

// Walk-engine trajectories at shards={2,4,7} against shards=1 for one
// options set (curve and inform-round traces on).
void expect_walk_widths_agree(
    const std::function<RunResult(const WalkOptions&)>& run,
    WalkOptions opt, const std::string& what) {
  opt.trace.informed_curve = true;
  opt.trace.inform_rounds = true;
  opt.shards = 1;
  const RunResult ref = run(opt);
  for (const std::uint32_t shards : kShardCounts) {
    opt.shards = shards;
    expect_same_result(ref, run(opt), what + " shards=" +
                                          std::to_string(shards));
  }
}

// The General-mode passes (agent-id slot keys through stifling, blocking
// and per-vertex success draws) and the non-stationary placements, on
// graphs where many walkers share a vertex — the contended-claim case.
void expect_interventions_and_placements_agree(
    const std::function<RunResult(const Graph&, std::uint64_t,
                                  const WalkOptions&)>& run,
    WalkOptions base, const std::string& what) {
  const Graph graphs[] = {gen::star(64), gen::double_star(24),
                          gen::heavy_binary_tree(63)};
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto on_g = [&](const WalkOptions& o) { return run(g, seed, o); };
      WalkOptions opt = base;
      opt.transmission.stifle = 3;
      expect_walk_widths_agree(on_g, opt, what + " stifle=3");
      opt = base;
      opt.transmission.block_fraction = 0.05;
      opt.transmission.block_round = 2;
      opt.transmission.tp = 0.8;
      expect_walk_widths_agree(on_g, opt, what + " block=0.05,tp=0.8");
      opt = base;
      opt.placement = Placement::uniform;
      opt.alpha = 2.0;
      expect_walk_widths_agree(on_g, opt, what + " placement=uniform");
      opt = base;
      opt.placement = Placement::at_vertex;
      opt.placement_anchor = 5;
      expect_walk_widths_agree(on_g, opt, what + " placement=at_vertex");
      // Fewer agents than ranges: the clamped-away ranges' tallies must
      // read zero.
      opt = base;
      opt.agent_count = 3;
      opt.max_rounds = 200;
      expect_walk_widths_agree(on_g, opt, what + " agents=3");
    }
  }
}

TEST(ShardedVisitExchange, TrajectoryIndependentOfShardCount) {
  const Graph graphs[] = {gen::cycle(64),       gen::complete(48),
                          gen::grid2d(8, 8),    gen::star(64),
                          gen::double_star(24), gen::heavy_binary_tree(63)};
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const RunResult ref = run_visitx_shards(g, seed, 1, 1.0f);
      ASSERT_TRUE(ref.completed);
      for (const std::uint32_t shards : kShardCounts) {
        expect_same_result(ref, run_visitx_shards(g, seed, shards, 1.0f),
                           "visitx shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ShardedVisitExchange, HeterogeneousTrajectoriesMatch) {
  const Graph g = gen::circulant(96, 4);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const RunResult ref = run_visitx_shards(g, seed, 1, 0.7f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_visitx_shards(g, seed, shards, 0.7f),
                         "het visitx shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardedVisitExchange, InterventionsAndPlacementsMatch) {
  expect_interventions_and_placements_agree(
      [](const Graph& g, std::uint64_t seed, const WalkOptions& opt) {
        return run_visit_exchange(g, 0, seed, opt);
      },
      WalkOptions{}, "visitx");
}

TEST(ShardedVisitExchange, ReusedArenaTalliesStartAtZero) {
  // A 65-agent trial leaves inform counts in all 7 per-shard tallies; a
  // 3-agent trial on the same arena fans out over 3 ranges only, so the 4
  // clamped-away tallies must read zero, not the previous trial's counts.
  const Graph g = gen::star(64);
  WalkOptions few;
  few.shards = 7;
  few.agent_count = 3;
  few.max_rounds = 50;
  few.trace.informed_curve = true;
  few.trace.inform_rounds = true;
  WalkOptions many = few;
  many.agent_count = 0;
  many.max_rounds = 1;
  const RunResult ref = VisitExchangeProcess(g, 0, 5, few).run();
  TrialArena arena;
  (void)VisitExchangeProcess(g, 0, 5, many, &arena).run();
  expect_same_result(ref, VisitExchangeProcess(g, 0, 5, few, &arena).run(),
                     "reused arena");
}

TEST(ShardedVisitExchange, ImplicitAndOwnedBackendsAgree) {
  const auto spec_imp = GraphSpec::parse("torus(rows=8,cols=8)");
  const auto spec_own = GraphSpec::parse("torus(rows=8,cols=8,backend=owned)");
  ASSERT_TRUE(spec_imp && spec_own);
  Rng rng(1);
  const Graph imp = spec_imp->make(rng);
  const Graph own = spec_own->make(rng);
  ASSERT_TRUE(imp.is_implicit());
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const RunResult ref = run_visitx_shards(imp, seed, 1, 1.0f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_visitx_shards(own, seed, shards, 1.0f),
                         "backend visitx shards=" + std::to_string(shards));
    }
  }
}

RunResult run_meetx_shards(const Graph& g, std::uint64_t seed,
                           std::uint32_t shards, float tp) {
  WalkOptions opt = MeetExchangeProcess::default_options();
  opt.shards = shards;
  opt.transmission.tp = tp;
  opt.trace.informed_curve = true;
  opt.trace.inform_rounds = true;
  return run_meet_exchange(g, 0, seed, opt);
}

TEST(ShardedMeetExchange, TrajectoryIndependentOfShardCount) {
  // cycle is bipartite: the default auto_bipartite laziness must resolve
  // identically through the sharded walk kernel.
  const Graph graphs[] = {gen::cycle(48),       gen::complete(32),
                          gen::grid2d(6, 6),    gen::star(64),
                          gen::double_star(24), gen::heavy_binary_tree(63)};
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const RunResult ref = run_meetx_shards(g, seed, 1, 1.0f);
      ASSERT_TRUE(ref.completed);
      for (const std::uint32_t shards : kShardCounts) {
        expect_same_result(ref, run_meetx_shards(g, seed, shards, 1.0f),
                           "meetx shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ShardedMeetExchange, HeterogeneousTrajectoriesMatch) {
  const Graph g = gen::circulant(96, 4);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const RunResult ref = run_meetx_shards(g, seed, 1, 0.7f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_meetx_shards(g, seed, shards, 0.7f),
                         "het meetx shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardedMeetExchange, InterventionsAndPlacementsMatch) {
  // at_vertex with an anchor off the source leaves the source active, so
  // the source-meeting branch and its tally run too.
  expect_interventions_and_placements_agree(
      [](const Graph& g, std::uint64_t seed, const WalkOptions& opt) {
        return run_meet_exchange(g, 0, seed, opt);
      },
      MeetExchangeProcess::default_options(), "meetx");
}

TEST(ShardedMeetExchange, ImplicitAndOwnedBackendsAgree) {
  const auto spec_imp = GraphSpec::parse("torus(rows=6,cols=6)");
  const auto spec_own = GraphSpec::parse("torus(rows=6,cols=6,backend=owned)");
  ASSERT_TRUE(spec_imp && spec_own);
  Rng rng(1);
  const Graph imp = spec_imp->make(rng);
  const Graph own = spec_own->make(rng);
  ASSERT_TRUE(imp.is_implicit());
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const RunResult ref = run_meetx_shards(imp, seed, 1, 1.0f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_meetx_shards(own, seed, shards, 1.0f),
                         "backend meetx shards=" + std::to_string(shards));
    }
  }
}

RunResult run_hybrid_shards(const Graph& g, std::uint64_t seed,
                            std::uint32_t shards, float tp) {
  WalkOptions opt;
  opt.shards = shards;
  opt.transmission.tp = tp;
  opt.trace.informed_curve = true;
  opt.trace.inform_rounds = true;
  return run_hybrid(g, 0, seed, opt);
}

TEST(ShardedHybrid, TrajectoryIndependentOfShardCount) {
  // The dual phase exercises every draw phase at once: agent informs,
  // push, pull, and agent catches in one round.
  const Graph graphs[] = {gen::cycle(96), gen::star(64),
                          gen::double_star(24), gen::heavy_binary_tree(63)};
  for (const Graph& g : graphs) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const RunResult ref = run_hybrid_shards(g, seed, 1, 1.0f);
      ASSERT_TRUE(ref.completed);
      for (const std::uint32_t shards : kShardCounts) {
        expect_same_result(ref, run_hybrid_shards(g, seed, shards, 1.0f),
                           "hybrid shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ShardedHybrid, HeterogeneousTrajectoriesMatch) {
  const Graph g = gen::circulant(96, 4);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const RunResult ref = run_hybrid_shards(g, seed, 1, 0.6f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_hybrid_shards(g, seed, shards, 0.6f),
                         "het hybrid shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardedHybrid, InterventionsAndPlacementsMatch) {
  expect_interventions_and_placements_agree(
      [](const Graph& g, std::uint64_t seed, const WalkOptions& opt) {
        return run_hybrid(g, 0, seed, opt);
      },
      WalkOptions{}, "hybrid");
}

TEST(ShardedHybrid, ImplicitAndOwnedBackendsAgree) {
  const auto spec_imp = GraphSpec::parse("torus(rows=8,cols=8)");
  const auto spec_own = GraphSpec::parse("torus(rows=8,cols=8,backend=owned)");
  ASSERT_TRUE(spec_imp && spec_own);
  Rng rng(1);
  const Graph imp = spec_imp->make(rng);
  const Graph own = spec_own->make(rng);
  ASSERT_TRUE(imp.is_implicit());
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const RunResult ref = run_hybrid_shards(imp, seed, 1, 1.0f);
    for (const std::uint32_t shards : kShardCounts) {
      expect_same_result(ref, run_hybrid_shards(own, seed, shards, 1.0f),
                         "backend hybrid shards=" + std::to_string(shards));
    }
  }
}

// ---- Owned-CSR build ----------------------------------------------------

// The owned build's arrays depend on the edge set alone: a scrambled edge
// list, its sorted (min, max) form and its form with every edge reversed
// give identical offsets, neighbors and fwd_offsets, hence the same edge
// numbering, degree stats and sharded trajectory.
TEST(CsrBuild, ContentIdenticalAcrossEdgeOrders) {
  // A strided permutation of a two-offset circulant (rows arrive unsorted,
  // so the build sorts them), plus an irregular star overlay so degrees
  // differ per row.
  const Vertex n = 700;
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v < n; ++v) {
    edges.emplace_back(v, (v + 1) % n);
    edges.emplace_back(v, (v + 5) % n);
  }
  for (Vertex v = 10; v < 200; v += 7) edges.emplace_back(3, v);
  std::vector<std::pair<Vertex, Vertex>> scrambled(edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    scrambled[k] = edges[(k * 911) % edges.size()];  // 911 coprime to size
  }
  std::vector<std::pair<Vertex, Vertex>> sorted;
  std::vector<std::pair<Vertex, Vertex>> reversed;
  for (const auto& [u, v] : scrambled) {
    sorted.emplace_back(std::min(u, v), std::max(u, v));
    reversed.emplace_back(v, u);
  }
  std::sort(sorted.begin(), sorted.end());

  const Graph ref(n, scrambled);
  const CsrView a = ref.csr();
  ASSERT_EQ(a.offsets[n], 2 * edges.size());
  ASSERT_EQ(a.fwd_offsets[n], edges.size());
  for (Vertex v = 0; v < n; ++v) {
    // Rows strictly ascending; fwd_offsets counts the neighbors above v.
    std::uint32_t above = 0;
    for (std::uint32_t i = a.offsets[v]; i < a.offsets[v + 1]; ++i) {
      if (i > a.offsets[v]) {
        ASSERT_LT(a.neighbors[i - 1], a.neighbors[i]);
      }
      above += a.neighbors[i] > v ? 1 : 0;
    }
    ASSERT_EQ(a.fwd_offsets[v + 1] - a.fwd_offsets[v], above) << "v=" << v;
  }
  const RunResult ref_run = run_push_shards(ref, 5, 2, 1.0f);
  for (const auto* list : {&sorted, &reversed}) {
    const Graph g(n, *list);
    ASSERT_EQ(g.num_vertices(), ref.num_vertices());
    ASSERT_EQ(g.num_edges(), ref.num_edges());
    const CsrView b = g.csr();
    for (Vertex v = 0; v <= n; ++v) {
      EXPECT_EQ(a.offsets[v], b.offsets[v]);
      EXPECT_EQ(a.fwd_offsets[v], b.fwd_offsets[v]);
    }
    for (std::size_t i = 0; i < 2 * ref.num_edges(); ++i) {
      ASSERT_EQ(a.neighbors[i], b.neighbors[i]) << "slot " << i;
    }
    for (EdgeId e = 0; e < ref.num_edges(); ++e) {
      EXPECT_EQ(g.edge_endpoints(e), ref.edge_endpoints(e));
    }
    EXPECT_EQ(g.min_degree(), ref.min_degree());
    EXPECT_EQ(g.max_degree(), ref.max_degree());
    EXPECT_EQ(g.degrees_all_pow2(), ref.degrees_all_pow2());
    expect_same_result(ref_run, run_push_shards(g, 5, 2, 1.0f),
                       "csr substrate");
  }
}

TEST(CsrBuild, DegenerateShapesBuildAndValidate) {
  const std::vector<std::pair<Vertex, Vertex>> one = {{1, 0}};
  const Graph g1(2, one);
  EXPECT_EQ(g1.num_edges(), 1u);
  EXPECT_EQ(g1.degree(0), 1u);
  EXPECT_TRUE(g1.has_edge(0, 1));
  EXPECT_EQ(g1.edge_endpoints(0), (std::pair<Vertex, Vertex>{0, 1}));
  EXPECT_TRUE(g1.degrees_all_pow2());

  // A path listed backwards, each edge as (v + 1, v).
  std::vector<std::pair<Vertex, Vertex>> path;
  for (Vertex v = 0; v + 1 < 9; ++v) path.emplace_back(v + 1, v);
  const Graph gp(9, path);
  EXPECT_EQ(gp.min_degree(), 1u);
  EXPECT_EQ(gp.max_degree(), 2u);
  EXPECT_TRUE(gp.properties().connected);
  EXPECT_TRUE(gp.properties().bipartite);
  for (EdgeId e = 0; e < gp.num_edges(); ++e) {
    EXPECT_EQ(gp.edge_endpoints(e), (std::pair<Vertex, Vertex>{e, e + 1}));
  }

  // Isolated vertices around one edge: empty rows repeat their offsets.
  const std::vector<std::pair<Vertex, Vertex>> lone = {{4, 2}};
  const Graph gi(7, lone);
  EXPECT_EQ(gi.min_degree(), 0u);
  EXPECT_EQ(gi.max_degree(), 1u);
  EXPECT_FALSE(gi.degrees_all_pow2());
  EXPECT_FALSE(gi.properties().connected);
  EXPECT_EQ(gi.edge_endpoints(0), (std::pair<Vertex, Vertex>{2, 4}));
  const CsrView ci = gi.csr();
  for (Vertex v = 0; v <= 7; ++v) {
    EXPECT_EQ(ci.offsets[v], v <= 2 ? 0u : (v <= 4 ? 1u : 2u)) << v;
    EXPECT_EQ(ci.fwd_offsets[v], v <= 2 ? 0u : 1u) << v;
  }

  // The empty graph: one offsets entry per array, no rows.
  const Graph empty(0, {});
  EXPECT_EQ(empty.num_vertices(), 0u);
  EXPECT_EQ(empty.num_edges(), 0u);
  EXPECT_EQ(empty.min_degree(), 0u);
  EXPECT_EQ(empty.max_degree(), 0u);
  EXPECT_FALSE(empty.degrees_all_pow2());
  EXPECT_FALSE(empty.properties().connected);
  EXPECT_TRUE(empty.properties().bipartite);
  EXPECT_EQ(empty.csr().offsets[0], 0u);
  EXPECT_EQ(empty.csr().fwd_offsets[0], 0u);
}

// ---- Zero steady-state allocations -------------------------------------

TEST(ShardedAlloc, SteadyStateTrialsAllocateNothing) {
  const Graph g = gen::circulant(256, 8);
  TrialArena arena;
  for (const char* text :
       {"push(shards=2)", "push-pull(shards=2)", "visit-exchange(shards=2)",
        "meet-exchange(shards=2)", "hybrid(shards=2)",
        "push(shards=4,tp=0.8)", "push-pull(shards=4,tp=0.9)",
        "meet-exchange(shards=4,tp=0.8)", "hybrid(shards=4,tp=0.8)",
        "visit-exchange(shards=4,placement=uniform)",
        "meet-exchange(shards=2,placement=uniform)",
        "hybrid(shards=4,placement=uniform)", "visit-exchange(shards=4,stifle=3)",
        "meet-exchange(shards=4,stifle=3)", "hybrid(shards=2,stifle=3)"}) {
    const auto spec = ProtocolSpec::parse(text);
    ASSERT_TRUE(spec) << text;
    // Warm-up: scratch segments grow to their high-water mark.
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      (void)run_protocol(g, *spec, 0, derive_seed(4242, seed), &arena);
    }
    test_alloc::g_allocations.store(0);
    test_alloc::g_count.store(true);
    double acc = 0.0;
    for (std::uint64_t seed = 8; seed < 24; ++seed) {
      acc += run_protocol(g, *spec, 0, derive_seed(4242, seed), &arena)
                 .rounds;
    }
    test_alloc::g_count.store(false);
    EXPECT_EQ(test_alloc::g_allocations.load(), 0u)
        << text << " (rounds acc " << acc << ")";
  }
}

// ---- Two-axis trial schedule -------------------------------------------

TrialSet run_batch_on_pool(const Graph& g, const ProtocolSpec& spec,
                           std::size_t trials, ThreadPool* pool) {
  TrialSet set;
  TrialBatch batch;
  batch.graph = &g;
  batch.protocol = &spec;
  batch.source = 0;
  batch.trials = trials;
  batch.master_seed = 99;
  batch.out = &set;
  TrialRunOptions options;
  options.pool = pool;
  const TrialRunOutcome outcome = run_trial_batches({batch}, options);
  EXPECT_EQ(outcome.trials_run, trials);
  return set;
}

TEST(TwoAxisSchedule, WideAndNarrowProduceIdenticalSamples) {
  // 2 trials on a 4-worker pool: too few to fill it, so the sharded batch
  // runs WIDE (caller thread + range fan-out). On a 1-worker pool the same
  // batch drains narrow. Samples must be bit-identical either way, and
  // identical to the plain run_trials path on the global pool.
  const Graph g = gen::circulant(192, 6);
  const auto spec = ProtocolSpec::parse("push(shards=2)");
  ASSERT_TRUE(spec);
  ThreadPool wide_pool(4);
  ThreadPool narrow_pool(1);
  const TrialSet wide = run_batch_on_pool(g, *spec, 2, &wide_pool);
  const TrialSet narrow = run_batch_on_pool(g, *spec, 2, &narrow_pool);
  EXPECT_EQ(wide.rounds, narrow.rounds);
  EXPECT_EQ(wide.informed, narrow.informed);
  EXPECT_EQ(wide.incomplete, narrow.incomplete);
  const TrialSet global = run_trials(g, *spec, 0, 2, 99);
  EXPECT_EQ(wide.rounds, global.rounds);
}

TEST(TwoAxisSchedule, ManyTrialsStillDrainNarrow) {
  // With enough queued trials to fill the pool, sharded batches drain
  // through the classic one-trial-one-worker path (nested fan-out
  // flattens inline on each worker) — and still match the wide samples.
  const Graph g = gen::cycle(128);
  const auto spec = ProtocolSpec::parse("push-pull(shards=3)");
  ASSERT_TRUE(spec);
  ThreadPool small_pool(2);
  ThreadPool big_pool(8);
  const TrialSet narrow = run_batch_on_pool(g, *spec, 6, &small_pool);
  const TrialSet wide = run_batch_on_pool(g, *spec, 6, &big_pool);
  EXPECT_EQ(narrow.rounds, wide.rounds);
  EXPECT_EQ(narrow.informed, wide.informed);
}

TEST(TwoAxisSchedule, MixedShardedAndSerialBatchesEmitInOrder) {
  const Graph g = gen::cycle(64);
  const auto sharded = ProtocolSpec::parse("push(shards=2)");
  const auto serial = ProtocolSpec::parse("push");
  ASSERT_TRUE(sharded && serial);
  TrialSet set_a;
  TrialSet set_b;
  TrialBatch a;
  a.graph = &g;
  a.protocol = &*sharded;
  a.trials = 1;
  a.master_seed = 5;
  a.out = &set_a;
  TrialBatch b = a;
  b.protocol = &*serial;
  b.out = &set_b;
  ThreadPool pool(4);
  std::vector<std::size_t> emitted;
  std::mutex emitted_mutex;
  TrialRunOptions options;
  options.pool = &pool;
  options.on_batch_done = [&](std::size_t i) {
    std::lock_guard lock(emitted_mutex);
    emitted.push_back(i);
  };
  const TrialRunOutcome outcome = run_trial_batches({a, b}, options);
  EXPECT_EQ(outcome.trials_run, 2u);
  EXPECT_EQ(emitted, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(set_a.rounds.size(), 1u);
  EXPECT_EQ(set_b.rounds.size(), 1u);
  // The serial batch's sample is untouched by the sharded engine riding
  // alongside it in the same queue.
  const TrialSet alone = run_trials(g, *serial, 0, 1, 5);
  EXPECT_EQ(set_b.rounds, alone.rounds);
}

}  // namespace
}  // namespace rumor
