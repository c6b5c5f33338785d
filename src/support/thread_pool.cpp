#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "support/assert.hpp"

namespace rumor {

namespace {

// Identifies the executing thread's slot in its owning pool. Thread-local
// rather than shard-local so overlapping parallel_for calls on the same
// pool can never hand one worker slot to two live threads.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker_index = 0;
// Last range-job epoch this worker participated in; a worker only wakes
// for a range job it has not yet drained (see parallel_for_ranges_impl).
thread_local std::uint64_t tl_range_epoch = 0;

}  // namespace

// The stack-allocated descriptor an in-flight parallel_for_ranges shares
// with participating workers. `seats` is how many more workers may join
// (guarded by mutex_; the caller holds a seat of its own), `next` is the
// shard claim cursor, `done` counts completed shards, and `touching`
// counts threads still holding a pointer to this frame — the caller must
// not return (and destroy the frame) until done == shards and
// touching == 0.
struct ThreadPool::RangeJob {
  RangeFn fn;
  void* ctx;
  std::size_t count;
  std::size_t shards;
  std::size_t seats;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> touching{0};
};

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  tl_pool = this;
  tl_worker_index = worker_index;
  for (;;) {
    std::function<void()> task;
    RangeJob* range = nullptr;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] {
        return stopping_ || !tasks_.empty() ||
               (range_job_ != nullptr && tl_range_epoch != range_epoch_);
      });
      if (range_job_ != nullptr && tl_range_epoch != range_epoch_) {
        tl_range_epoch = range_epoch_;
        // Every seat taken: sit this job out rather than time-slice a
        // core with a thread that is already running its ranges.
        if (range_job_->seats == 0) continue;
        --range_job_->seats;
        // Pin the frame (under mutex_, while range_job_ is known valid)
        // before dropping the lock; the caller waits for touching == 0.
        range = range_job_;
        range->touching.fetch_add(1, std::memory_order_relaxed);
      } else if (stopping_ && tasks_.empty()) {
        return;
      } else {
        task = std::move(tasks_.front());
        tasks_.pop();
      }
    }
    if (range != nullptr) {
      run_range_job(*range);
      {
        std::lock_guard lock(mutex_);
        range->touching.fetch_sub(1, std::memory_order_relaxed);
      }
      range_done_cv_.notify_all();
    } else {
      task();
    }
  }
}

// Claims shards off `job` until the cursor is exhausted. Runs on workers
// and on the submitting caller alike.
void ThreadPool::run_range_job(RangeJob& job) {
  for (;;) {
    const std::size_t s = job.next.fetch_add(1, std::memory_order_relaxed);
    if (s >= job.shards) return;
    const auto [begin, end] = shard_range(job.count, job.shards, s);
    job.fn(job.ctx, s, begin, end);
    job.done.fetch_add(1, std::memory_order_release);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_indexed(
      count, [&fn](std::size_t /*worker*/, std::size_t i) { fn(i); });
}

void ThreadPool::parallel_for_indexed(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t chunk) {
  if (count == 0) return;
  const std::size_t workers = threads_.size();
  // Inline path: trivial work, a single worker, or a NESTED call from one
  // of this pool's own workers. The nested case must flatten: queueing and
  // blocking from inside the pool deadlocks once every worker is parked in
  // a nested call with nobody left to drain the queue.
  if (count == 1 || workers == 1 || tl_pool == this) {
    const std::size_t self =
        tl_pool == this ? tl_worker_index : workers;
    for (std::size_t i = 0; i < count; ++i) fn(self, i);
    return;
  }

  const std::size_t shards = std::min(workers, count);
  if (chunk == 0) {
    // Small enough that the tail stays balanced across shards, large enough
    // that the shared atomic is touched O(shards) times, not O(count).
    chunk = std::max<std::size_t>(1, count / (shards * 8));
  }

  // Chunked ranges are claimed via a shared atomic cursor; one queued shard
  // per worker. parallel_for_indexed blocks until every shard finishes, so
  // capturing locals by reference in the shard closure is safe. The
  // completion count is decremented under done_mutex so the waiter cannot
  // observe zero (and destroy the condition variable) while a worker still
  // holds it.
  std::atomic<std::size_t> next{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = shards;

  auto shard_fn = [&next, &remaining, count, chunk, workers, this, &fn,
                   &done_mutex, &done_cv] {
    const std::size_t worker =
        tl_pool == this ? tl_worker_index : workers;
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk);
      if (begin >= count) break;
      const std::size_t end = std::min(begin + chunk, count);
      for (std::size_t i = begin; i < end; ++i) fn(worker, i);
    }
    std::lock_guard lock(done_mutex);
    if (--remaining == 0) done_cv.notify_all();
  };

  {
    std::lock_guard lock(mutex_);
    RUMOR_CHECK(!stopping_);
    for (std::size_t s = 0; s < shards; ++s) tasks_.push(shard_fn);
  }
  cv_.notify_all();

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

bool ThreadPool::on_worker_thread() const { return tl_pool == this; }

void ThreadPool::parallel_for_ranges_impl(std::size_t count,
                                          std::size_t shards, RangeFn fn,
                                          void* ctx) {
  if (count == 0) return;
  shards = std::min(std::max<std::size_t>(1, shards), count);

  // Inline path — serial, in shard order, with the same range boundaries
  // the parallel path would use (the merge-order contract): degenerate
  // widths, nested calls from this pool's own workers (queue-and-block
  // would deadlock), and a pool whose single range-job slot is already
  // occupied by a concurrent caller.
  auto run_inline = [&] {
    for (std::size_t s = 0; s < shards; ++s) {
      const auto [begin, end] = shard_range(count, shards, s);
      fn(ctx, s, begin, end);
    }
  };
  if (shards == 1 || threads_.size() == 1 || tl_pool == this) {
    run_inline();
    return;
  }
  std::unique_lock slot(range_mutex_, std::try_to_lock);
  if (!slot.owns_lock()) {
    run_inline();
    return;
  }

  // The caller runs ranges too, so it takes one of the worker_count()
  // seats; a worker beyond the last useful one would only share a core.
  RangeJob job{fn, ctx, count, shards,
               std::min(shards, threads_.size()) - 1};
  {
    std::lock_guard lock(mutex_);
    RUMOR_CHECK(!stopping_);
    range_job_ = &job;
    ++range_epoch_;
  }
  cv_.notify_all();

  // The caller participates too, then waits until every shard completed
  // AND every worker that pinned the frame released it (a worker may hold
  // the pointer past the last claim while it exits its claim loop).
  run_range_job(job);
  {
    std::unique_lock lock(mutex_);
    range_done_cv_.wait(lock, [&] {
      return job.done.load(std::memory_order_acquire) == job.shards &&
             job.touching.load(std::memory_order_relaxed) == 0;
    });
    range_job_ = nullptr;
  }
}

namespace {

std::atomic<std::size_t> g_requested_workers{0};
std::atomic<bool> g_pool_constructed{false};

}  // namespace

ThreadPool& global_pool() {
  static ThreadPool pool{[] {
    g_pool_constructed.store(true);
    return g_requested_workers.load();
  }()};
  return pool;
}

void set_global_pool_workers(std::size_t workers) {
  // A fixed-size pool cannot be resized after threads exist; configuring
  // too late would silently run at the wrong width.
  RUMOR_CHECK(!g_pool_constructed.load());
  g_requested_workers.store(workers);
}

namespace {

thread_local ThreadPool* tl_shard_pool = nullptr;

}  // namespace

ThreadPool& shard_pool() {
  return tl_shard_pool != nullptr ? *tl_shard_pool : global_pool();
}

ThreadPool* set_shard_pool(ThreadPool* pool) {
  ThreadPool* previous = tl_shard_pool;
  tl_shard_pool = pool;
  return previous;
}

}  // namespace rumor
