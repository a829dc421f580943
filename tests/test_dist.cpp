#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/allocator.h"
#include "alloc/initial.h"
#include "alloc/reassign.h"
#include "common/rng.h"
#include "dist/cluster_agent.h"
#include "dist/manager.h"
#include "dist/parallel_eval.h"
#include "dist/protocol.h"
#include "dist/thread_pool.h"
#include "model/alloc_state.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "workload/scenario.h"

namespace cloudalloc::dist {
namespace {

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&hits](int i) { ++hits[static_cast<std::size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ShutdownDrainsQueuedWorkAndIsIdempotent) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_workers(), 2);
  pool.shutdown();
  pool.shutdown();  // second call is a no-op
  EXPECT_EQ(pool.num_workers(), 0);
  // With the workers gone, a fan-out still runs every task on the caller.
  std::atomic<int> counter{0};
  pool.parallel_for(50, [&counter](int) { ++counter; });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ResolveWorkersClampsNegativeCountsToOne) {
  EXPECT_EQ(resolve_workers(-1), 1);
  EXPECT_EQ(resolve_workers(-64), 1);
  EXPECT_EQ(resolve_workers(1), 1);
  EXPECT_EQ(resolve_workers(3), 3);
  EXPECT_GE(resolve_workers(0), 1);  // the hardware concurrency
}

TEST(ThreadPool, ParallelForChunkedCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(103);
  pool.parallel_for_chunked(103, 16, [&hits](int begin, int end) {
    for (int i = begin; i < end; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForDrainsAllTasksBeforeRethrowing) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  bool threw = false;
  try {
    pool.parallel_for(64, [&completed](int i) {
      if (i == 5) throw std::runtime_error("task 5 failed");
      ++completed;
    });
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "task 5 failed");
  }
  EXPECT_TRUE(threw);
  // The drain guarantee: when the exception reaches the caller, every
  // other task has already finished touching the shared captures.
  EXPECT_EQ(completed.load(), 63);
}

TEST(ClusterAgent, ImproveOnlyTouchesItsClients) {
  workload::ScenarioParams params;
  params.num_clients = 20;
  params.servers_per_cluster = 5;
  const auto cloud = workload::make_scenario(params, 51);
  alloc::AllocatorOptions opts;
  Rng rng(51);
  model::Allocation snapshot =
      alloc::build_initial_solution(cloud, opts, rng);
  ClusterAgent agent(model::ClusterId{0}, opts);
  const auto improvement = agent.improve(snapshot.clone());
  EXPECT_EQ(improvement.cluster, model::ClusterId{0});
  EXPECT_GE(improvement.profit_delta, -1e-9);
  for (const auto& row : improvement.placements) {
    EXPECT_EQ(snapshot.cluster_of(row.client), model::ClusterId{0});
    for (const auto& p : row.placements)
      EXPECT_EQ(cloud.server(p.server).cluster, model::ClusterId{0});
  }
}

TEST(DistributedAllocator, MatchesSequentialQuality) {
  workload::ScenarioParams params;
  params.num_clients = 30;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, 53);

  alloc::AllocatorOptions opts;
  opts.seed = 9;
  const auto sequential = alloc::ResourceAllocator(opts).run(cloud);
  const auto distributed =
      DistributedAllocator(DistributedOptions{opts}).run(cloud);

  EXPECT_TRUE(model::is_feasible(distributed.allocation));
  // Same machinery, same seed: results agree to small tolerance (the
  // distributed rounds interleave stages slightly differently).
  EXPECT_NEAR(distributed.report.final_profit,
              sequential.report.final_profit,
              0.05 * std::abs(sequential.report.final_profit));
  EXPECT_GT(distributed.report.messages, 0u);
}

TEST(DistributedAllocator, InitialGreedyIdenticalToSequential) {
  workload::ScenarioParams params;
  params.num_clients = 20;
  params.servers_per_cluster = 5;
  const auto cloud = workload::make_scenario(params, 59);
  alloc::AllocatorOptions opts;
  opts.seed = 4;
  opts.max_local_search_rounds = 0;  // isolate the greedy phase

  Rng rng(opts.seed);
  const auto seq = alloc::build_initial_solution(cloud, opts, rng);
  const auto dist = DistributedAllocator(DistributedOptions{opts}).run(cloud);
  EXPECT_NEAR(dist.report.initial_profit, model::profit(seq), 1e-9);
}

TEST(DistributedAllocator, FeasibleAcrossSeeds) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    workload::ScenarioParams params;
    params.num_clients = 20;
    params.servers_per_cluster = 5;
    const auto cloud = workload::make_scenario(params, seed);
    alloc::AllocatorOptions opts;
    opts.seed = seed;
    opts.max_local_search_rounds = 4;
    const auto result = DistributedAllocator(DistributedOptions{opts}).run(cloud);
    EXPECT_TRUE(model::is_feasible(result.allocation)) << "seed " << seed;
    EXPECT_GE(result.report.final_profit,
              result.report.initial_profit - 1e-9);
  }
}

void expect_identical_allocations(const model::Allocation& a,
                                  const model::Allocation& b) {
  const auto& cloud = a.cloud();
  for (model::ClientId i : cloud.client_ids()) {
    ASSERT_EQ(a.is_assigned(i), b.is_assigned(i)) << "client " << i;
    if (!a.is_assigned(i)) continue;
    EXPECT_EQ(a.cluster_of(i), b.cluster_of(i));
    const auto& pa = a.placements(i);
    const auto& pb = b.placements(i);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t s = 0; s < pa.size(); ++s) {
      EXPECT_EQ(pa[s].server, pb[s].server);
      EXPECT_EQ(pa[s].psi, pb[s].psi);
      EXPECT_EQ(pa[s].phi_p, pb[s].phi_p);
      EXPECT_EQ(pa[s].phi_n, pb[s].phi_n);
    }
  }
}

/// The manager's rounds without messages, in one address space: each
/// round rebuilds the snapshot from the ledger's placement rows and
/// settles it, runs every cluster's agent on a copy of it, merges the
/// improvements in cluster order, runs the snapshot reassign pass and
/// keeps the best round. DistributedAllocator::run must reproduce it bit
/// for bit over a fault-free transport.
DistributedResult in_memory_rounds(const model::Cloud& cloud,
                                   const alloc::AllocatorOptions& opts) {
  const int K = cloud.num_clusters();
  const int workers = resolve_workers(opts.num_threads);
  const ParallelEval eval(workers > 1 ? &ThreadPool::shared(workers)
                                      : nullptr);
  Rng rng(opts.seed);
  model::Allocation initial =
      alloc::build_initial_solution(cloud, opts, rng, eval);
  DistributedReport report;
  report.initial_profit = model::profit(initial);
  model::AllocState state(std::move(initial));
  double best_profit = report.initial_profit;
  model::AllocState::Checkpoint best = state.checkpoint(best_profit);
  int stalled_rounds = 0;
  for (int round = 0; round < opts.max_local_search_rounds; ++round) {
    std::vector<protocol::ClientPlacements> rows(
        static_cast<std::size_t>(cloud.num_clients()));
    for (model::ClientId i : cloud.client_ids()) {
      protocol::ClientPlacements& row =
          rows[static_cast<std::size_t>(i.index())];
      row.client = i;
      if (!state.ledger().is_assigned(i)) continue;
      row.cluster = state.ledger().cluster_of(i);
      row.placements = state.ledger().placements(i);
    }
    model::Allocation snapshot = protocol::rebuild_allocation(cloud, rows);
    (void)model::profit(snapshot);  // settle before the agents read it
    std::vector<protocol::ClusterImprovement> improvements(
        static_cast<std::size_t>(K));
    eval.for_n(K, [&](int k) {
      improvements[static_cast<std::size_t>(k)] =
          ClusterAgent(model::ClusterId{k}, opts).improve(snapshot.clone());
    });
    for (int k = 0; k < K; ++k)
      for (const protocol::ClientPlacements& row :
           improvements[static_cast<std::size_t>(k)].placements) {
        if (row.cluster == model::kNoCluster || row.placements.empty())
          state.clear(row.client);
        else
          state.assign(row.client, model::ClusterId{k}, row.placements);
      }
    if (opts.enable_reassign) alloc::reassign_pass_snapshot(state, opts, eval);

    const double profit = state.profit();
    report.round_profits.push_back(profit);
    report.rounds_run = round + 1;
    if (profit > best_profit + opts.steady_tolerance *
                                   std::max(std::fabs(best_profit), 1.0))
      stalled_rounds = 0;
    else
      ++stalled_rounds;
    if (profit > best_profit) {
      best_profit = profit;
      best = state.checkpoint(profit);
    }
    if (stalled_rounds >= 2) break;
  }
  report.final_profit = best_profit;
  return DistributedResult{state.materialize(best), report};
}

// With a fault-free transport, the serialized message-passing deployment
// must be BIT-identical to the same rounds run in memory — same profits,
// same rounds, same placements — at every thread count. Everything that
// crosses the wire (doubles included) round-trips exactly, and both build
// agent snapshots through protocol::rebuild_allocation.
TEST(DistributedAllocator, MessagePassingBitIdenticalToSharedMemory) {
  workload::ScenarioParams params;
  params.num_clients = 24;
  params.servers_per_cluster = 5;
  const auto cloud = workload::make_scenario(params, 77);
  for (int threads : {1, 4, 8}) {
    alloc::AllocatorOptions opts;
    opts.seed = 11;
    opts.max_local_search_rounds = 4;
    opts.num_threads = threads;

    const auto in_memory = in_memory_rounds(cloud, opts);
    const auto message =
        DistributedAllocator(DistributedOptions{opts}).run(cloud);

    EXPECT_EQ(in_memory.report.initial_profit, message.report.initial_profit)
        << "threads " << threads;
    EXPECT_EQ(in_memory.report.final_profit, message.report.final_profit)
        << "threads " << threads;
    ASSERT_EQ(in_memory.report.round_profits.size(),
              message.report.round_profits.size())
        << "threads " << threads;
    for (std::size_t r = 0; r < in_memory.report.round_profits.size(); ++r)
      EXPECT_EQ(in_memory.report.round_profits[r],
                message.report.round_profits[r])
          << "threads " << threads << " round " << r;
    expect_identical_allocations(in_memory.allocation, message.allocation);
  }
}

// Regression for the epoch-deadline bug: DistributedAllocator::run used
// to ignore options.alloc.time_budget_ms entirely. A tiny budget must now
// truncate the improvement loop after round 1 (the deadline is checked
// between rounds, mirroring allocator.cpp's between-passes checks) while
// still returning the best completed checkpoint.
TEST(DistributedAllocator, TimeBudgetTruncatesAfterRoundOne) {
  workload::ScenarioParams params;
  params.num_clients = 20;
  params.servers_per_cluster = 5;
  const auto cloud = workload::make_scenario(params, 91);
  alloc::AllocatorOptions opts;
  opts.seed = 6;
  opts.max_local_search_rounds = 12;
  opts.time_budget_ms = 1e-3;  // expires during round 1
  const auto result = DistributedAllocator(DistributedOptions{opts}).run(cloud);
  EXPECT_TRUE(result.report.truncated);
  EXPECT_EQ(result.report.rounds_run, 1);
  // The best checkpoint survives truncation: the returned allocation
  // realizes final_profit, which is the best seen so far.
  EXPECT_GE(result.report.final_profit, result.report.initial_profit - 1e-9);
  EXPECT_NEAR(model::profit(result.allocation), result.report.final_profit,
              1e-6 * std::max(1.0, std::fabs(result.report.final_profit)));
  EXPECT_TRUE(model::is_feasible(result.allocation));
}

// An untruncated run must not set the flag.
TEST(DistributedAllocator, NoBudgetMeansNoTruncation) {
  workload::ScenarioParams params;
  params.num_clients = 15;
  params.servers_per_cluster = 4;
  const auto cloud = workload::make_scenario(params, 95);
  alloc::AllocatorOptions opts;
  opts.seed = 8;
  opts.max_local_search_rounds = 3;
  const auto result = DistributedAllocator(DistributedOptions{opts}).run(cloud);
  EXPECT_FALSE(result.report.truncated);
}

// Message accounting is real, not modeled: the transport's channel
// counters (Mailbox::messages_sent) are the single source of truth.
TEST(DistributedAllocator, MessageAndByteCountsComeFromTheTransport) {
  workload::ScenarioParams params;
  params.num_clients = 15;
  params.servers_per_cluster = 4;
  const auto cloud = workload::make_scenario(params, 97);
  alloc::AllocatorOptions opts;
  opts.seed = 12;
  opts.max_local_search_rounds = 2;

  const auto message =
      DistributedAllocator(DistributedOptions{opts}).run(cloud);
  // Per completed round: K requests + K responses, plus K shutdowns.
  const auto K = static_cast<std::size_t>(cloud.num_clusters());
  const auto rounds = static_cast<std::size_t>(message.report.rounds_run);
  EXPECT_EQ(message.report.messages, 2 * K * rounds + K);
  EXPECT_GT(message.report.bytes, 0u);
  EXPECT_EQ(message.report.responses_missed, 0);
  EXPECT_EQ(message.report.stale_messages, 0u);
}

}  // namespace
}  // namespace cloudalloc::dist
