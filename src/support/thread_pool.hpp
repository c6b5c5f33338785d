// Fixed-size thread pool with a deterministic parallel_for.
//
// Experiment trials are embarrassingly parallel; each index derives its own
// RNG seed from (master, index), so results are identical regardless of the
// number of workers or scheduling order.
//
// parallel_for_indexed additionally reports a stable *worker index* to the
// callback: pool thread k always reports k, and any other thread (the
// caller on the inline path, or a foreign thread) reports worker_count().
// The index identifies the executing thread — not the queued shard — so a
// callee can own mutable state per pool worker (e.g. a TrialArena) that is
// never touched by two tasks concurrently, even when several parallel_for
// calls from different caller threads overlap on the same pool. Index
// worker_count() is shared by ALL non-pool threads; callees keying state by
// it must use thread-local storage for that slot (see trials.cpp).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rumor {

class ThreadPool {
 public:
  // workers == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

  // Runs fn(i) for every i in [0, count). Blocks until all complete.
  // fn must not throw (simulation code reports failures via contract
  // aborts); work is claimed in chunks so scheduling stays balanced without
  // one atomic operation per index.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  // As parallel_for, but fn(worker, i) also receives the executing thread's
  // stable worker index in [0, worker_count()]; index worker_count() is the
  // calling thread (inline path). `chunk` is the number of consecutive
  // indices claimed per scheduling operation; 0 picks a granularity that
  // amortizes the atomic while keeping shards balanced.
  void parallel_for_indexed(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& fn,
      std::size_t chunk = 0);

  // True when the calling thread is one of THIS pool's workers. A nested
  // parallel_for* from a worker flattens to a serial inline run instead of
  // queueing (queue-and-block from inside the pool is a deadlock: with every
  // worker blocked in a nested call there is nobody left to drain the
  // queue).
  [[nodiscard]] bool on_worker_thread() const;

  // Range-partitioned variant for sharded round kernels: splits [0, count)
  // into exactly min(shards, count) balanced contiguous ranges and runs
  // fn(shard, begin, end) for each, blocking until all complete. Range
  // boundaries depend only on (count, shards) — see shard_range — never on
  // worker count or scheduling, so callers can key deterministic state by
  // shard index. Unlike parallel_for_indexed this path performs no heap
  // allocation: the job descriptor lives on the caller's stack and idle
  // workers claim ranges through it, one at a time, so a slowed thread
  // hands its unclaimed ranges to the others. At most worker_count()
  // threads run a job, the caller included: a pool never puts more
  // threads on a pass than the cores it was sized for, however many
  // ranges the pass has. Runs inline (serially, in shard order)
  // when shards <= 1, the pool has one worker, the caller IS a worker of
  // this pool, or another range job is already in flight on this pool.
  template <typename Fn>
  void parallel_for_ranges(std::size_t count, std::size_t shards, Fn&& fn) {
    using Decayed = std::remove_reference_t<Fn>;
    parallel_for_ranges_impl(
        count, shards,
        [](void* ctx, std::size_t shard, std::size_t begin, std::size_t end) {
          (*static_cast<Decayed*>(ctx))(shard, begin, end);
        },
        const_cast<void*>(
            static_cast<const void*>(std::addressof(fn))));
  }

  // The [begin, end) range shard s of `shards` covers: q = count/shards
  // indices each, with the first count%shards shards taking one extra. Pure
  // in (count, shards, s) — the determinism contract of the sharded
  // kernels rests on this being independent of everything else.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> shard_range(
      std::size_t count, std::size_t shards, std::size_t s) {
    const std::size_t q = count / shards;
    const std::size_t r = count % shards;
    const std::size_t begin = s * q + std::min(s, r);
    return {begin, begin + q + (s < r ? 1 : 0)};
  }

 private:
  using RangeFn = void (*)(void*, std::size_t, std::size_t, std::size_t);
  struct RangeJob;

  void worker_loop(std::size_t worker_index);
  void parallel_for_ranges_impl(std::size_t count, std::size_t shards,
                                RangeFn fn, void* ctx);
  void run_range_job(RangeJob& job);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stopping_ = false;
  // Active parallel_for_ranges job (stack-allocated by the caller; nulled
  // by the caller after completion). range_epoch_ increments per job so a
  // worker that already drained this job's claims does not spin on it.
  RangeJob* range_job_ = nullptr;
  std::uint64_t range_epoch_ = 0;
  std::mutex range_mutex_;  // one range job in flight per pool
  std::condition_variable range_done_cv_;
};

// Process-wide pool for experiment runners (constructed on first use).
ThreadPool& global_pool();

// Sets the worker count global_pool() will be constructed with (the CLI's
// --jobs=N). Must be called before the first global_pool() use — the pool
// is fixed-size — and aborts otherwise; 0 restores the hardware default.
void set_global_pool_workers(std::size_t workers);

// Ambient pool the sharded round kernels fan per-shard work onto. Defaults
// to global_pool(); the trial scheduler points it at its own pool for the
// duration of a wide (multi-worker) trial. Thread-local on purpose: two
// schedulers running concurrently (the serve daemon) must not see each
// other's override, and a kernel invoked FROM a pool worker flattens its
// nested parallel_for_ranges inline, so the hook is always safe to consult.
[[nodiscard]] ThreadPool& shard_pool();

// Installs `pool` as the calling thread's shard pool (nullptr restores the
// global_pool() default) and returns the previous override.
ThreadPool* set_shard_pool(ThreadPool* pool);

}  // namespace rumor
