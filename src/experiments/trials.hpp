// Parallel trial runner: one global (batch, trial) work queue.
//
// Trials are independent repetitions with seeds derived statelessly from
// (master seed, trial index): the produced sample vectors are identical
// regardless of worker count or scheduling.
//
// A multi-scenario experiment file submits ALL of its scenarios' trials as
// one flattened index space (run_trial_batches), so trials from different
// scenarios interleave across the pool — a long-tail scenario (push on the
// 32k star: ~370k rounds/trial) no longer holds every worker hostage at a
// per-scenario barrier while quick scenarios wait their turn.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/specs.hpp"
#include "support/stats.hpp"

namespace rumor {

class ThreadPool;

// Salt separating the graph-draw seed stream from the trial seed stream:
// fresh-graph trial i draws its graph from derive_seed(master ^
// kGraphSeedSalt, i). Shared with preparation's draw (prepare_scenarios)
// so a scenario is reproducible from its text alone.
constexpr std::uint64_t kGraphSeedSalt = 0xABCDEF12345678ULL;

// The full per-trial distribution, not just a broadcast-time scalar: one
// slot per trial in every vector.
struct TrialSet {
  std::vector<double> rounds;  // broadcast time (cutoff if incomplete)
  // The all-agents milestone (visit-exchange's agent_rounds); equals
  // `rounds` for protocols without a separate one, 0 for protocols with no
  // agent notion at all (multi-rumor, async).
  std::vector<double> agent_rounds;
  // Final informed-entity counts: the containment measure when a
  // transmission model with interventions stops the rumor short.
  std::vector<double> informed;
  std::size_t incomplete = 0;  // trials that hit the round cutoff
  // Per-trial informed curves; populated only when the protocol spec
  // traces informed_curve. The stifled curves ride along whenever the
  // spec's transmission model stifles (empty per-trial vectors otherwise).
  std::vector<std::vector<std::uint32_t>> informed_curves;
  std::vector<std::vector<std::uint32_t>> stifled_curves;

  [[nodiscard]] Summary summary() const { return Summary::of(rounds); }
  [[nodiscard]] Summary agent_summary() const {
    return Summary::of(agent_rounds);
  }
  [[nodiscard]] Summary informed_summary() const {
    return Summary::of(informed);
  }
};

// R trials of `spec` on a fixed graph; `source` must be a vertex of `g`.
[[nodiscard]] TrialSet run_trials(const Graph& g, const ProtocolSpec& spec,
                                  Vertex source, std::size_t trials,
                                  std::uint64_t master_seed);

// R trials where each trial draws a fresh graph from the GraphSpec (for
// random families where graph randomness should be averaged over) and runs
// from `source`. The source is validated against every draw — a spec whose
// sizes don't cover `source` fails loudly instead of indexing out of
// bounds.
[[nodiscard]] TrialSet run_trials_fresh_graph(const GraphSpec& graph_spec,
                                              const ProtocolSpec& spec,
                                              Vertex source,
                                              std::size_t trials,
                                              std::uint64_t master_seed);

// One scenario's block of trials in the global work queue. Exactly one of
// `graph` (fixed-graph mode), `fresh_spec` (redraw per trial), and
// `lazy_spec` (deterministic spec, built by the scheduler) is set; `out` is
// the caller-owned result slot the scheduler sizes and fills. Batches next
// to each other in claim order (and on one axis of its schedule) that
// name one lazy spec are a run: the graph is built when the run's first
// trial is claimed, shared by the run, and released when the run's last
// batch drains, so a many-scenario file holds at most the graphs actively
// being worked on, one copy each, not the whole file's. Every referenced
// object must outlive the run_trial_batches call.
struct TrialBatch {
  const Graph* graph = nullptr;
  const GraphSpec* fresh_spec = nullptr;
  const GraphSpec* lazy_spec = nullptr;
  const ProtocolSpec* protocol = nullptr;
  Vertex source = 0;
  std::size_t trials = 0;
  std::uint64_t master_seed = 0;
  TrialSet* out = nullptr;
  // Expected relative cost for BatchOrder::longest_first (the n·trials
  // heuristic scenario_batch fills in); 0 falls back to `trials`.
  std::size_t cost_hint = 0;
};

// How the scheduler orders batches in the claim queue. Results and report
// order are IDENTICAL either way (sample i of batch b depends only on
// (master_seed, i), and on_batch_done always fires in batch order); only
// wall-clock tails differ.
enum class BatchOrder {
  file,           // claim trials in submission order (the default)
  longest_first,  // start the highest cost_hint batches first: a long-tail
                  // scenario late in the file no longer finishes last
};

// Thrown by run_trial_batches when a trial throws or a batch's result
// storage cannot be allocated: carries which batch failed so the caller
// can name the scenario. Remaining trials are abandoned (already-emitted
// on_batch_done batches stay emitted; no further batches are reported).
class TrialBatchError : public std::runtime_error {
 public:
  TrialBatchError(std::size_t batch, const std::string& message)
      : std::runtime_error(message), batch_index_(batch) {}
  [[nodiscard]] std::size_t batch_index() const { return batch_index_; }

 private:
  std::size_t batch_index_;
};

// Point-in-time view of a draining trial queue. The invariant
// trials_done <= trials_claimed <= trials_total holds in every snapshot
// (enforced by TrialCounters' load ordering); at drain all three are
// equal and batches_done == batches_total.
struct TrialQueueSnapshot {
  std::size_t trials_total = 0;
  std::size_t trials_claimed = 0;  // handed to a worker (includes done)
  std::size_t trials_done = 0;
  std::size_t batches_total = 0;
  std::size_t batches_done = 0;
  [[nodiscard]] std::size_t in_flight() const {
    return trials_claimed - trials_done;
  }
  [[nodiscard]] std::size_t queued() const {
    return trials_total - trials_claimed;
  }
};

// Shared queue-depth/in-flight counters: run_trial_batches (and the serve
// scheduler, which drains the same per-trial executor) bump these as
// trials are claimed and retired; any thread may snapshot() concurrently —
// the CLI's --progress lines and the serve daemon's STATS reply both do.
//
// The snapshot loads done BEFORE claimed and claimed BEFORE total, and the
// writers order their increments the opposite way (a trial is counted
// claimed before it runs; a batch's trials are counted into total before
// any is claimable), so every snapshot satisfies done <= claimed <= total
// even mid-drain. Totals may grow between snapshots (the serve queue
// accepts jobs while draining) or shrink when a cancellation drops
// never-claimed trials.
class TrialCounters {
 public:
  void add(std::size_t trials, std::size_t batches) {
    trials_total_.fetch_add(trials, std::memory_order_relaxed);
    batches_total_.fetch_add(batches, std::memory_order_relaxed);
  }
  // Cancellation: removes trials that will never be claimed (the batch
  // still counts as done when it retires).
  void drop_trials(std::size_t trials) {
    trials_total_.fetch_sub(trials, std::memory_order_relaxed);
  }
  // Cancellation of a whole batch mid-drain: it will never retire through
  // on_batch_done, so its slot leaves the total.
  void drop_batches(std::size_t batches) {
    batches_total_.fetch_sub(batches, std::memory_order_relaxed);
  }
  void on_claim() { trials_claimed_.fetch_add(1, std::memory_order_relaxed); }
  void on_trial_done() {
    trials_done_.fetch_add(1, std::memory_order_release);
  }
  void on_batch_done() {
    batches_done_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] TrialQueueSnapshot snapshot() const {
    TrialQueueSnapshot s;
    s.batches_done = batches_done_.load(std::memory_order_relaxed);
    s.trials_done = trials_done_.load(std::memory_order_acquire);
    s.trials_claimed = trials_claimed_.load(std::memory_order_relaxed);
    s.trials_total = trials_total_.load(std::memory_order_relaxed);
    s.batches_total = batches_total_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<std::size_t> trials_total_{0};
  std::atomic<std::size_t> trials_claimed_{0};
  std::atomic<std::size_t> trials_done_{0};
  std::atomic<std::size_t> batches_total_{0};
  std::atomic<std::size_t> batches_done_{0};
};

// Build-on-first-claim slot for a run of lazy batches: the graph
// materializes when some worker claims the run's first trial and is
// released (by the scheduler, when the run's last batch drains) so a
// many-scenario queue holds at most the graphs actively being worked on.
// acquire checks every batch's source against the graph. The graph seed
// derivation matches the eager path, so laziness cannot change a result.
class LazyGraphSlot {
 public:
  const Graph& acquire(const TrialBatch& batch);
  void release();

 private:
  std::mutex mutex_;
  std::optional<Graph> graph_;
};

// Validates `batch` (same preconditions run_trial_batches enforces) and
// sizes every vector of *batch.out for batch.trials slots. Returns whether
// the protocol traces per-trial curves. The serve scheduler calls this
// once per accepted batch; run_trial_batches performs it internally.
// Throws std::bad_alloc when the storage cannot be allocated; callers
// report that with result_storage_error.
bool prepare_trial_set(const TrialBatch& batch);

// "cannot allocate result storage for <trials> trials".
[[nodiscard]] std::string result_storage_error(std::size_t trials);

// Runs trial `i` of a prepared batch EXACTLY as run_trial_batches would —
// same (master_seed, i) seed derivation, same per-thread TrialArena reuse,
// same fresh/lazy/fixed graph resolution — and records the outcome into
// batch.out slot i. Returns whether the trial completed (false = hit the
// round cutoff; the caller aggregates TrialSet::incomplete). `lazy` is
// required iff batch.lazy_spec is set. This is the single-claim building
// block the serve fair-share scheduler drains through, so service results
// are byte-identical to a one-shot run by construction.
bool run_batch_trial(const TrialBatch& batch, std::size_t i,
                     LazyGraphSlot* lazy = nullptr);

struct TrialRunOptions {
  // Fired once per batch, in BATCH ORDER (batch b is reported only after
  // batches 0..b-1), as completions allow — the streaming-report hook.
  // Runs on a worker thread under the scheduler's emission lock.
  std::function<void(std::size_t)> on_batch_done;
  ThreadPool* pool = nullptr;  // nullptr = global_pool()
  BatchOrder order = BatchOrder::file;
  // Graceful-stop flag, polled before every claim: once observed true, no
  // further trial starts (in-flight trials finish and are recorded), no
  // further batch is emitted, and the run returns with stopped=true
  // instead of throwing — the SIGINT path.
  const std::atomic<bool>* stop = nullptr;
  // Queue-depth introspection (see TrialCounters); the run add()s its
  // totals on entry and bumps claim/done live.
  TrialCounters* counters = nullptr;
  // Fired after every recorded trial (worker thread, unordered):
  // (batch index, trial index).
  std::function<void(std::size_t, std::size_t)> on_trial_done;
};

struct TrialRunOutcome {
  bool stopped = false;        // the stop flag cut the run short
  std::size_t trials_run = 0;  // trials actually executed and recorded
};

// Drains every batch's trials through ONE parallel-for over the
// concatenated (batch, trial) index space: trials from different batches
// interleave freely across workers, there is no barrier between batches,
// and per-worker TrialArena reuse keeps steady-state allocations at zero.
// Sample i of batch b is still derive_seed(b.master_seed, i) — identical
// to running the batches one at a time, for any worker count and any
// BatchOrder.
//
// `on_batch_done(b)` fires once per batch, in BATCH ORDER (batch b is
// reported only after batches 0..b-1 were reported), as completions allow
// — the streaming-report hook. It runs on a worker thread under the
// scheduler's emission lock; keep it cheap. `pool` defaults to
// global_pool().
void run_trial_batches(
    const std::vector<TrialBatch>& batches,
    const std::function<void(std::size_t)>& on_batch_done = {},
    ThreadPool* pool = nullptr, BatchOrder order = BatchOrder::file);

// As above, with the full option set (stop flag, queue counters, per-trial
// hook). The no-options overload is equivalent to default TrialRunOptions.
TrialRunOutcome run_trial_batches(const std::vector<TrialBatch>& batches,
                                  const TrialRunOptions& options);

}  // namespace rumor
