// Claim-counter pool tests: nesting, concurrent callers, exceptions and
// the chunk-boundary contract. The suite name JobSystem is matched by the
// CI TSan sweep and by the asan-ubsan job's stack-use-after-return run,
// which catches a worker touching a Batch after its caller returned; keep
// the name if you rename anything here.
#include "dist/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace cloudalloc::dist {
namespace {

TEST(JobSystem, NestedParallelForFromWorkerThread) {
  ThreadPool pool(4);
  // Outer tasks fan out again from inside the pool: the worker must help
  // run the inner batch instead of deadlocking or CHECK-failing.
  std::vector<std::atomic<int>> hits(32 * 16);
  pool.parallel_for(32, [&](int outer) {
    pool.parallel_for(16, [&](int inner) {
      ++hits[static_cast<std::size_t>(outer * 16 + inner)];
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(JobSystem, DeeplyNestedFanOut) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.parallel_for(4, [&](int) {
    pool.parallel_for(4, [&](int) {
      pool.parallel_for(4, [&](int) { ++leaves; });
    });
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(JobSystem, ExceptionDrainsAllTasksAndRethrowsLowestIndex) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  // Two throwing slots; the contract is every task still runs and the
  // lowest-index exception wins regardless of execution order.
  try {
    pool.parallel_for(64, [&](int i) {
      ++ran;
      if (i == 5 || i == 40) throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 5");
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(JobSystem, ChunkedExceptionDrainsBeforeRethrow) {
  ThreadPool pool(3);
  std::atomic<int> covered{0};
  try {
    pool.parallel_for_chunked(100, 7, [&](int begin, int end) {
      covered += end - begin;
      if (begin == 21) throw std::runtime_error("boom");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(covered.load(), 100);
}

TEST(JobSystem, StealHeavyStress) {
  ThreadPool pool(4);
  // Wildly unbalanced task costs force constant stealing; the sum checks
  // exactly-once execution under contention.
  constexpr int kTasks = 2000;
  std::atomic<long long> sum{0};
  for (int round = 0; round < 5; ++round) {
    sum = 0;
    pool.parallel_for(kTasks, [&](int i) {
      if (i % 97 == 0) {
        volatile long long spin = 0;
        for (int k = 0; k < 20000; ++k) spin = spin + k;
      }
      sum += i;
    });
    EXPECT_EQ(sum.load(), static_cast<long long>(kTasks) * (kTasks - 1) / 2);
  }
}

TEST(JobSystem, ConcurrentFanOutsFromExternalThreads) {
  ThreadPool pool(3);
  // Independent batches from several external threads share the pool; each
  // batch's barrier must only wait for its own tasks.
  std::vector<std::thread> callers;
  std::atomic<int> total{0};
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&pool, &total] {
      for (int round = 0; round < 10; ++round)
        pool.parallel_for(50, [&total](int) { ++total; });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 4 * 10 * 50);
}

TEST(JobSystem, ChunkBoundariesIndependentOfWorkerCount) {
  // The determinism contract: (n, grain) fully determines the chunk set.
  const auto boundaries = [](int workers, int n, int grain) {
    ThreadPool pool(workers);
    std::mutex m;
    std::set<std::pair<int, int>> chunks;
    pool.parallel_for_chunked(n, grain, [&](int begin, int end) {
      std::lock_guard<std::mutex> lock(m);
      chunks.insert({begin, end});
    });
    return chunks;
  };
  const auto expect = boundaries(1, 1003, 16);
  EXPECT_EQ(boundaries(2, 1003, 16), expect);
  EXPECT_EQ(boundaries(4, 1003, 16), expect);
  EXPECT_EQ(boundaries(8, 1003, 16), expect);
  // Exact coverage with a short last chunk.
  int covered = 0;
  int max_end = 0;
  for (const auto& [b, e] : expect) {
    covered += e - b;
    max_end = std::max(max_end, e);
  }
  EXPECT_EQ(covered, 1003);
  EXPECT_EQ(max_end, 1003);
}

TEST(JobSystem, SharedPoolIsReusedPerWorkerCount) {
  ThreadPool& a = ThreadPool::shared(3);
  ThreadPool& b = ThreadPool::shared(3);
  ThreadPool& c = ThreadPool::shared(2);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(a.num_workers(), 3);
  EXPECT_EQ(c.num_workers(), 2);
  std::atomic<int> n{0};
  a.parallel_for(100, [&n](int) { ++n; });
  EXPECT_EQ(n.load(), 100);
}

TEST(JobSystem, FanOutTakesMoveOnlyCallable) {
  ThreadPool pool(2);
  // The callable is used in place, never copied into a std::function, so
  // one that owns a move-only resource is accepted as it is.
  auto base = std::make_unique<int>(7);
  std::atomic<int> sum{0};
  auto add = [base = std::move(base), &sum](int i) { sum += *base + i; };
  pool.parallel_for(10, add);
  EXPECT_EQ(sum.load(), 10 * 7 + 45);
}

}  // namespace
}  // namespace cloudalloc::dist
