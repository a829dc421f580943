// Fan-out pool that runs the parallel evaluation fan-outs (multi-start
// greedy, sharded block pricing, snapshot reassign and simulator
// replications).
//
// Execution model: each fan-out is a Batch on the caller's stack holding a
// task count, one atomic next-index counter and one exception slot per
// index. The caller lists the batch, claims and runs indices itself,
// unlists it, then sleeps until every worker that joined has left. Idle
// workers join the newest listed batch and claim indices until the counter
// runs past the end. A waiting caller never helps, and it need not: it
// only waits for indices already running on threads deeper in its own
// fan-out, so nested fan-outs (from tasks, or from several external
// threads at once) terminate. No fan-out allocates per task or erases the
// callable's type into a std::function.
//
// Determinism contract: chunk boundaries are a pure function of
// (n, grain), never of the worker count or the scheduling, so per-chunk
// state (RNG streams, scratch copies) yields bit-identical results at any
// pool size, including the inline path. Claiming changes WHERE an index
// runs, never what it computes.
//
// Exception contract: every task runs before the lowest-index stored
// exception is rethrown, so a throwing task can never race the caller's
// destroyed captures.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/sync.h"

namespace cloudalloc::dist {

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(threads_.size()); }

  /// Process-wide reusable pool with `workers` threads: repeated solves
  /// (online epochs, benches, the distributed manager's rounds) share one
  /// warm pool per worker count instead of paying thread spawn/join per
  /// call. Pools live until process exit; concurrent fan-outs from
  /// different callers are safe (batches are independent).
  static ThreadPool& shared(int workers);

  /// Runs fn(0..n-1) on the workers and the calling thread and blocks
  /// until all complete. Every task runs before the lowest-index stored
  /// exception is rethrown. Safe to call from inside a task.
  template <typename Fn>
  void parallel_for(int n, const Fn& fn) {
    if (n <= 0) return;
    Batch batch(n, &fn, [](const void* f, int i) {
      (*static_cast<const Fn*>(f))(i);
    });
    run(batch);
  }

  /// Chunked variant: fn(begin, end) over ranges of `grain` consecutive
  /// indices (the last chunk may be shorter). Chunk boundaries depend
  /// only on (n, grain); see the determinism contract above.
  template <typename Fn>
  void parallel_for_chunked(int n, int grain, const Fn& fn) {
    if (n <= 0) return;
    CHECK(grain >= 1);
    parallel_for((n + grain - 1) / grain, [&fn, n, grain](int chunk) {
      const int begin = chunk * grain;
      fn(begin, std::min(begin + grain, n));
    });
  }

  /// Joins the workers. Idempotent; the destructor calls it. Later
  /// fan-outs still run every task, on the calling thread.
  void shutdown();

 private:
  /// One fan-out. It lives on the caller's stack, and run() returns only
  /// after every worker that joined it has left.
  struct Batch {
    using Invoke = void (*)(const void* fn, int index);
    Batch(int n, const void* callable, Invoke call)
        : tasks(n), fn(callable), invoke(call),
          errors(static_cast<std::size_t>(n)) {}

    /// Claims and runs indices until the counter passes the end.
    void claim();

    const int tasks;
    const void* const fn;
    const Invoke invoke;
    std::atomic<int> next{0};                ///< next unclaimed index
    std::vector<std::exception_ptr> errors;  ///< write-once, one per index
    /// Workers currently inside claim(). Guarded by the pool's mutex_,
    /// which GUARDED_BY cannot name from a nested type.
    int joined = 0;
  };

  void run(Batch& batch);
  void unlist(Batch& batch) REQUIRES(mutex_);
  void worker_loop();

  sync::Mutex mutex_;
  sync::CondVar work_cv_;  ///< a batch was listed, or shutdown began
  sync::CondVar left_cv_;  ///< a worker left a batch
  std::vector<Batch*> listed_ GUARDED_BY(mutex_);  ///< newest last
  bool stopping_ GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_;  ///< last: the workers use the above
};

/// Maps an options-level thread count to a worker count: 0 means "use the
/// hardware concurrency", anything else is clamped to at least 1.
inline int resolve_workers(int num_threads) {
  if (num_threads != 0) return std::max(num_threads, 1);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace cloudalloc::dist
