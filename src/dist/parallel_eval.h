// ParallelEval: the one entry point of every parallel fan-out (multi-start
// greedy, sharded block pricing, snapshot reassign, simulator
// replications). It runs deterministic index/chunk
// fan-outs either inline (no pool, the default) or on a dist::ThreadPool,
// with the invariant that the work decomposition depends only on the
// problem size — never on the worker count — so any reduction over
// per-task results is bit-identical at every thread count, including 1.
//
// Seed-splitting convention (see DESIGN.md "Threading model"): a caller
// that needs randomness per task draws one 64-bit seed per task from its
// own Rng *before* the fan-out, in task-index order, and each task seeds a
// private Rng from its slot. The parent stream therefore advances the same
// way regardless of how the tasks are scheduled.
#pragma once

#include <algorithm>

#include "dist/thread_pool.h"

namespace cloudalloc::dist {

class ParallelEval {
 public:
  /// Inline engine: fan-outs run on the calling thread.
  ParallelEval() = default;

  /// Pool-backed engine; `pool` may be null (inline) and must outlive this.
  explicit ParallelEval(ThreadPool* pool) : pool_(pool) {}

  bool parallel() const { return pool_ != nullptr && pool_->num_workers() > 1; }

  /// Threads a fan-out can run on at once: the pool's workers plus the
  /// calling thread, or 1 inline.
  int threads() const { return parallel() ? pool_->num_workers() + 1 : 1; }

  /// Runs fn(0..n-1); one task per index. Blocks until all complete.
  template <typename Fn>
  void for_n(int n, const Fn& fn) const {
    if (parallel()) {
      pool_->parallel_for(n, fn);
    } else {
      for (int i = 0; i < n; ++i) fn(i);
    }
  }

  /// Runs fn(begin, end) over chunks of `grain` consecutive indices. Chunk
  /// boundaries are identical inline and pooled, so per-chunk scratch state
  /// cannot leak scheduling into results.
  template <typename Fn>
  void for_chunks(int n, int grain, const Fn& fn) const {
    if (parallel()) {
      pool_->parallel_for_chunked(n, grain, fn);
    } else {
      for (int begin = 0; begin < n; begin += grain)
        fn(begin, std::min(begin + grain, n));
    }
  }

 private:
  ThreadPool* pool_ = nullptr;
};

}  // namespace cloudalloc::dist
