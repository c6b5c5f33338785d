#include "experiments/trials.hpp"

#include <algorithm>
#include <new>
#include <string>

#include "core/sharding.hpp"
#include "support/thread_pool.hpp"
#include "support/trial_arena.hpp"

namespace rumor {

namespace {

// One persistent arena per executing thread. Pool workers live for the
// process, so the scratch buffers — and the per-graph placement cache —
// are reused across invocations: steady-state trials allocate nothing.
// Thread-local (rather than keyed by pool worker index) so two pools
// draining batches concurrently, or a caller thread on the inline path,
// can never hand one arena to two live trials.
TrialArena& arena_for_thread() {
  thread_local TrialArena arena;
  return arena;
}

bool record_trial(TrialSet& set, std::size_t i, TrialResult&& outcome,
                  bool want_curves) {
  set.rounds[i] = outcome.rounds;
  set.agent_rounds[i] = outcome.agent_rounds;
  set.informed[i] = outcome.informed;
  if (want_curves) {
    set.informed_curves[i] = std::move(outcome.informed_curve);
    set.stifled_curves[i] = std::move(outcome.stifled_curve);
  }
  return outcome.completed;
}

bool batch_wants_curves(const TrialBatch& batch) {
  const TraceOptions* trace = batch.protocol->trace();
  return trace != nullptr && trace->informed_curve;
}

// Graph size a batch will run on, without building anything: the eager
// graph answers directly, spec-driven batches answer from the analytic
// probe. A probe failure reads as 0 ("not huge") — make() surfaces the
// real error when the trial actually runs.
std::uint64_t batch_vertex_count(const TrialBatch& batch) {
  if (batch.graph != nullptr) return batch.graph->num_vertices();
  const GraphSpec* spec =
      batch.fresh_spec != nullptr ? batch.fresh_spec : batch.lazy_spec;
  const auto probe = spec->probe();
  return probe ? probe->n : 0;
}

}  // namespace

const Graph& LazyGraphSlot::acquire(const TrialBatch& batch) {
  std::lock_guard lock(mutex_);
  if (!graph_) {
    Rng graph_rng(derive_seed(batch.master_seed ^ kGraphSeedSalt, 0));
    graph_.emplace(batch.lazy_spec->make(graph_rng));
  }
  // A shared slot serves batches it was not built for: check each one.
  RUMOR_REQUIRE(batch.source < graph_->num_vertices());
  return *graph_;
}

void LazyGraphSlot::release() {
  std::lock_guard lock(mutex_);
  graph_.reset();
}

bool prepare_trial_set(const TrialBatch& batch) {
  RUMOR_REQUIRE(batch.trials > 0);
  RUMOR_REQUIRE(batch.out != nullptr && batch.protocol != nullptr);
  RUMOR_REQUIRE((batch.graph != nullptr) + (batch.fresh_spec != nullptr) +
                    (batch.lazy_spec != nullptr) ==
                1);
  if (batch.lazy_spec != nullptr) {
    // Laziness needs a reproducible build: a random draw at claim time
    // would depend on scheduling. Random specs use fresh_spec (per-trial
    // redraw) or an eagerly built `graph`.
    RUMOR_REQUIRE(!batch.lazy_spec->is_random());
  }
  if (batch.graph != nullptr) {
    RUMOR_REQUIRE(batch.source < batch.graph->num_vertices());
  }
  TrialSet& set = *batch.out;
  set.rounds.assign(batch.trials, 0.0);
  set.agent_rounds.assign(batch.trials, 0.0);
  set.informed.assign(batch.trials, 0.0);
  set.incomplete = 0;
  set.informed_curves.clear();
  set.stifled_curves.clear();
  const bool want_curves = batch_wants_curves(batch);
  if (want_curves) {
    set.informed_curves.resize(batch.trials);
    set.stifled_curves.resize(batch.trials);
  }
  return want_curves;
}

std::string result_storage_error(std::size_t trials) {
  return "cannot allocate result storage for " + std::to_string(trials) +
         " trials";
}

bool run_batch_trial(const TrialBatch& batch, std::size_t i,
                     LazyGraphSlot* lazy) {
  const bool want_curves = batch_wants_curves(batch);
  if (batch.fresh_spec != nullptr) {
    Rng graph_rng(derive_seed(batch.master_seed ^ kGraphSeedSalt, i));
    const Graph g = batch.fresh_spec->make(graph_rng);
    // Every draw must cover the source; aborting with a clear message
    // beats the out-of-bounds UB a silent mismatch would cause.
    RUMOR_REQUIRE(batch.source < g.num_vertices());
    return record_trial(*batch.out, i,
                        run_protocol(g, *batch.protocol, batch.source,
                                     derive_seed(batch.master_seed, i),
                                     &arena_for_thread()),
                        want_curves);
  }
  // The lazy graph stays alive until the batch's LAST trial completes
  // (the scheduler releases after every trial records), so this reference
  // cannot dangle mid-trial.
  RUMOR_REQUIRE((batch.lazy_spec != nullptr) == (lazy != nullptr));
  const Graph& g = lazy != nullptr ? lazy->acquire(batch) : *batch.graph;
  return record_trial(*batch.out, i,
                      run_protocol(g, *batch.protocol, batch.source,
                                   derive_seed(batch.master_seed, i),
                                   &arena_for_thread()),
                      want_curves);
}

TrialRunOutcome run_trial_batches(const std::vector<TrialBatch>& batches,
                                  const TrialRunOptions& options) {
  TrialRunOutcome outcome;
  if (batches.empty()) return outcome;
  const std::size_t n = batches.size();
  // Validate + size every result slot up front. Storage under the
  // physical-memory bound validation enforces can still exceed the address
  // space the process may use; that fails the batch by name.
  for (std::size_t b = 0; b < n; ++b) {
    try {
      prepare_trial_set(batches[b]);
    } catch (const std::bad_alloc&) {
      throw TrialBatchError(b, result_storage_error(batches[b].trials));
    }
  }

  // Claim order: the identity (file order), or highest expected cost
  // first. Only the order in which workers START trials changes — sample
  // values and emission order are claim-order independent.
  std::vector<std::size_t> exec(n);
  for (std::size_t b = 0; b < n; ++b) exec[b] = b;
  if (options.order == BatchOrder::longest_first) {
    std::stable_sort(exec.begin(), exec.end(),
                     [&](std::size_t a, std::size_t b) {
                       const std::size_t ca = batches[a].cost_hint != 0
                                                  ? batches[a].cost_hint
                                                  : batches[a].trials;
                       const std::size_t cb = batches[b].cost_hint != 0
                                                  ? batches[b].cost_hint
                                                  : batches[b].trials;
                       return ca > cb;
                     });
  }
  // offsets[p] = start of exec[p]'s trials in the flattened index space.
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    offsets[p + 1] = offsets[p] + batches[exec[p]].trials;
  }
  const std::size_t total = offsets.back();
  if (options.counters != nullptr) options.counters->add(total, n);
  ThreadPool* pool = options.pool != nullptr ? options.pool : &global_pool();

  // Two-axis schedule. The narrow axis is the classic one-trial-one-worker
  // drain; the wide axis gives a single trial the WHOLE pool: the caller
  // thread runs it and the sharded round kernels inside fan their frontier
  // ranges across the workers via parallel_for_ranges. A batch's trials go
  // wide only when its sharded engine is on for its graph (spec + probed
  // n, see core/sharding) AND the queued trials cannot fill the pool by
  // themselves — with enough queued trials, trial-level parallelism
  // already saturates the machine and each trial's nested range fan-out
  // flattens inline on its worker. Either way every sample is
  // derive_seed(master_seed, i): the axis changes worker assignment, never
  // results or emission order. Only a plan with fewer trials than workers
  // can run trials wide; wide[p] is the axis of claim position p.
  const std::size_t workers = pool->worker_count();
  const bool wide_eligible = workers >= 2 && total < workers;
  std::vector<bool> wide(n, false);
  if (wide_eligible) {
    for (std::size_t p = 0; p < n; ++p) {
      const TrialBatch& batch = batches[exec[p]];
      wide[p] = sharding_enabled(batch.protocol->shards(),
                                 batch_vertex_count(batch));
    }
  }

  // Lazy slots. Batches next to each other in claim order, on one axis,
  // that name one deterministic spec share the first one's slot: the run
  // of them builds its graph once, holds one copy, and drops it when its
  // last batch drains. A deterministic spec builds the same graph from any
  // seed.
  std::vector<LazyGraphSlot> lazy(n);
  std::vector<std::size_t> slot_of(n);
  std::vector<std::atomic<std::size_t>> slot_batches(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t b = exec[p];
    slot_of[b] = b;
    const GraphSpec* spec = batches[b].lazy_spec;
    if (spec == nullptr) continue;
    if (p > 0 && wide[p] == wide[p - 1]) {
      const GraphSpec* prev = batches[exec[p - 1]].lazy_spec;
      if (prev != nullptr && *prev == *spec) slot_of[b] = slot_of[exec[p - 1]];
    }
    slot_batches[slot_of[b]].fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<std::atomic<std::size_t>> incomplete(n);
  std::vector<std::atomic<std::size_t>> finished(n);
  std::atomic<std::size_t> trials_run{0};
  // In-order emission state: done[b] flips when batch b's last trial
  // lands; next_emit advances over the done prefix so on_batch_done sees
  // batches in file order no matter which finishes first.
  std::mutex emit_mutex;
  std::vector<bool> done(n, false);
  std::size_t next_emit = 0;
  // First-failure capture: one trial throwing cancels the remaining work
  // (already-running trials finish; nothing further is claimed or
  // emitted) and surfaces as TrialBatchError after the pool drains. The
  // caller's stop flag shares the claim gate but returns normally with
  // stopped=true instead.
  std::atomic<bool> cancelled{false};
  std::atomic<bool> stopped{false};
  std::size_t failed_batch = 0;
  std::string failure;

  auto complete_batch = [&](std::size_t b) {
    batches[b].out->incomplete = incomplete[b].load();
    if (options.counters != nullptr) options.counters->on_batch_done();
    if (!options.on_batch_done) return;
    std::lock_guard lock(emit_mutex);
    if (cancelled.load(std::memory_order_relaxed)) return;
    if (stopped.load(std::memory_order_relaxed)) return;
    done[b] = true;
    while (next_emit < n && done[next_emit]) {
      // Forming a batch's row copies and sorts its samples (Summary::of).
      // An allocation failure there fails that batch by name, as one in
      // its result storage does, instead of escaping the pool worker.
      try {
        options.on_batch_done(next_emit);
      } catch (const std::bad_alloc&) {
        if (!cancelled.exchange(true)) {
          failed_batch = next_emit;
          failure = "cannot allocate the row summary of " +
                    std::to_string(batches[next_emit].trials) + " trials";
        }
        return;
      }
      ++next_emit;
    }
  };

  // One trial, by flat index: claim bookkeeping, the run itself,
  // first-failure capture, and batch retirement. Shared verbatim by both
  // axes of the schedule below, so a trial's observable effects cannot
  // depend on which axis executed it.
  auto run_flat = [&](std::size_t flat) {
    if (cancelled.load(std::memory_order_relaxed)) return;
    if (options.stop != nullptr &&
        options.stop->load(std::memory_order_relaxed)) {
      stopped.store(true, std::memory_order_relaxed);
      return;
    }
    const std::size_t p = static_cast<std::size_t>(
        std::upper_bound(offsets.begin(), offsets.end(), flat) -
        offsets.begin() - 1);
    const std::size_t b = exec[p];
    const std::size_t i = flat - offsets[p];
    if (options.counters != nullptr) options.counters->on_claim();
    try {
      if (!run_batch_trial(
              batches[b], i,
              batches[b].lazy_spec != nullptr ? &lazy[slot_of[b]] : nullptr)) {
        incomplete[b].fetch_add(1);
      }
    } catch (const std::exception& e) {
      std::lock_guard lock(emit_mutex);
      if (!cancelled.exchange(true)) {
        failed_batch = b;
        failure = e.what();
      }
      return;
    } catch (...) {
      std::lock_guard lock(emit_mutex);
      if (!cancelled.exchange(true)) {
        failed_batch = b;
        failure = "unknown exception";
      }
      return;
    }
    trials_run.fetch_add(1, std::memory_order_relaxed);
    if (options.counters != nullptr) options.counters->on_trial_done();
    if (options.on_trial_done) options.on_trial_done(b, i);
    if (finished[b].fetch_add(1) + 1 == batches[b].trials) {
      // The batch drained; the last of its slot's run drops the graph.
      if (batches[b].lazy_spec != nullptr &&
          slot_batches[slot_of[b]].fetch_sub(1) == 1) {
        lazy[slot_of[b]].release();
      }
      complete_batch(b);
    }
  };

  // Only a plan that can run trials wide lists its flat indices; in any
  // other plan every trial is narrow, and the narrow drain's i-th trial is
  // flat index i.
  std::vector<std::size_t> wide_flats;
  std::vector<std::size_t> narrow_flats;
  if (wide_eligible) {
    for (std::size_t p = 0; p < n; ++p) {
      auto& flats = wide[p] ? wide_flats : narrow_flats;
      for (std::size_t flat = offsets[p]; flat < offsets[p + 1]; ++flat) {
        flats.push_back(flat);
      }
    }
  }
  const std::size_t narrow = wide_eligible ? narrow_flats.size() : total;

  // Wide trials first, sequentially: the narrow drain that follows starts
  // against a fully idle pool. The ambient shard pool is pointed at THIS
  // run's pool for the duration (and restored — it is thread-local, so
  // concurrent drains on distinct pools, as in the serve daemon, cannot
  // clobber each other).
  if (!wide_flats.empty()) {
    ThreadPool* prev = set_shard_pool(pool);
    for (const std::size_t flat : wide_flats) run_flat(flat);
    set_shard_pool(prev);
  }
  // Trials are macroscopic (a whole protocol run), so claiming them one at
  // a time costs nothing and keeps mixed-duration batches balanced: a
  // worker never gets stuck holding a chunk of long-tail trials while the
  // rest of the pool idles. Each worker's ambient shard pool is this pool,
  // so a sharded trial claimed narrow flattens its range fan-out inline
  // (ThreadPool rejects nested fan-out by flattening) instead of deadlock
  // or oversubscription.
  if (narrow != 0) {
    const std::size_t chunk = n > 1 ? 1 : 0;
    pool->parallel_for_indexed(
        narrow,
        [&](std::size_t /*worker*/, std::size_t idx) {
          ThreadPool* prev = set_shard_pool(pool);
          run_flat(wide_eligible ? narrow_flats[idx] : idx);
          set_shard_pool(prev);
        },
        chunk);
  }
  if (cancelled.load()) throw TrialBatchError(failed_batch, failure);
  outcome.stopped = stopped.load();
  outcome.trials_run = trials_run.load();
  return outcome;
}

void run_trial_batches(const std::vector<TrialBatch>& batches,
                       const std::function<void(std::size_t)>& on_batch_done,
                       ThreadPool* pool, BatchOrder order) {
  TrialRunOptions options;
  options.on_batch_done = on_batch_done;
  options.pool = pool;
  options.order = order;
  run_trial_batches(batches, options);
}

TrialSet run_trials(const Graph& g, const ProtocolSpec& spec, Vertex source,
                    std::size_t trials, std::uint64_t master_seed) {
  TrialSet set;
  TrialBatch batch;
  batch.graph = &g;
  batch.protocol = &spec;
  batch.source = source;
  batch.trials = trials;
  batch.master_seed = master_seed;
  batch.out = &set;
  run_trial_batches({batch});
  return set;
}

TrialSet run_trials_fresh_graph(const GraphSpec& graph_spec,
                                const ProtocolSpec& spec, Vertex source,
                                std::size_t trials,
                                std::uint64_t master_seed) {
  TrialSet set;
  TrialBatch batch;
  batch.fresh_spec = &graph_spec;
  batch.protocol = &spec;
  batch.source = source;
  batch.trials = trials;
  batch.master_seed = master_seed;
  batch.out = &set;
  run_trial_batches({batch});
  return set;
}

}  // namespace rumor
