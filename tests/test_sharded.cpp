// Shard-count determinism of the sharded greedy (alloc/sharded.h): every
// plan in a block is priced against the frozen block snapshot, so the
// resulting allocation must be bit-identical at ANY shard count and
// thread count. The merge's pool threads must reproduce a one-thread
// merge bit for bit. Also covered: the cluster_fanout probe window is a
// pure function of the client id, and sharded results stay feasible.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/allocator.h"
#include "alloc/assign_distribute.h"
#include "alloc/initial.h"
#include "alloc/move_engine.h"
#include "alloc/sharded.h"
#include "common/rng.h"
#include "dist/parallel_eval.h"
#include "dist/thread_pool.h"
#include "model/alloc_state.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

model::Cloud make_cloud(int clients, std::uint64_t seed) {
  workload::ScenarioParams params;
  params.num_clients = clients;
  params.servers_per_cluster = 10;
  return workload::make_scenario(params, seed);
}

std::vector<model::ClientId> shuffled_order(const model::Cloud& cloud,
                                            std::uint64_t seed) {
  std::vector<model::ClientId> order;
  for (model::ClientId i : cloud.client_ids()) order.push_back(i);
  Rng rng(seed);
  rng.shuffle(order);
  return order;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_identical(const model::Allocation& a, const model::Allocation& b) {
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
      EXPECT_EQ(bits(pa[s].psi), bits(pb[s].psi));
      EXPECT_EQ(bits(pa[s].phi_p), bits(pb[s].phi_p));
      EXPECT_EQ(bits(pa[s].phi_n), bits(pb[s].phi_n));
    }
  }
}

// The core contract: one greedy pass, same order, shard counts 1/2/4/8 —
// four runs, one allocation.
TEST(ShardedGreedy, BitIdenticalAcrossShardCounts) {
  const auto cloud = make_cloud(90, 11);
  const auto order = shuffled_order(cloud, 7);

  AllocatorOptions base_opts;
  base_opts.num_shards = 1;
  const model::Allocation base = sharded_greedy_insert(cloud, order, base_opts);
  const double base_profit = model::profit(base);
  EXPECT_GT(base_profit, 0.0);

  for (int shards : {1, 2, 4, 8}) {
    AllocatorOptions opts;
    opts.num_shards = shards;
    const model::Allocation run = sharded_greedy_insert(cloud, order, opts);
    EXPECT_EQ(bits(model::profit(run)), bits(base_profit))
        << "shards " << shards;
    expect_identical(base, run);
  }
}

// End to end: the full allocator (multi-start + local search) in sharded
// mode is a pure function of the scenario at any shard/thread count.
TEST(ShardedGreedy, FullAllocatorBitIdenticalAcrossShardsAndThreads) {
  const auto cloud = make_cloud(60, 13);
  AllocatorOptions opts;
  opts.seed = 5;
  opts.num_initial_solutions = 2;
  opts.max_local_search_rounds = 3;
  opts.num_shards = 1;
  opts.num_threads = 1;
  const auto base = ResourceAllocator(opts).run(cloud);

  for (int shards : {2, 4, 8}) {
    for (int threads : {1, 2}) {
      AllocatorOptions sopts = opts;
      sopts.num_shards = shards;
      sopts.num_threads = threads;
      const auto run = ResourceAllocator(sopts).run(cloud);
      EXPECT_EQ(bits(run.report.final_profit), bits(base.report.final_profit))
          << "shards " << shards << " threads " << threads;
      expect_identical(base.allocation, run.allocation);
    }
  }
}

/// The sharded greedy with the merge it had before the pool's threads
/// took part: one thread walks each block in order, re-prices live every
/// snapshot plan that no longer fits, and applies. Counts the re-prices.
model::Allocation sequential_merge(const model::Cloud& cloud,
                                   const std::vector<model::ClientId>& order,
                                   const AllocatorOptions& opts,
                                   int& reprices) {
  constexpr int kBlock = 1024;  // alloc/sharded.cpp's block
  model::AllocState state(cloud);
  MoveEngine mover(state, opts);
  const int n = static_cast<int>(order.size());
  double profit_now = state.profit();
  for (int b0 = 0; b0 < n; b0 += kBlock) {
    const int len = std::min(kBlock, n - b0);
    profit_now = state.profit();
    std::vector<std::optional<InsertionPlan>> plans;
    for (int idx = 0; idx < len; ++idx)
      plans.push_back(best_insertion(
          state.view(), order[static_cast<std::size_t>(b0 + idx)], opts));
    for (int idx = 0; idx < len; ++idx) {
      std::optional<InsertionPlan> plan =
          std::move(plans[static_cast<std::size_t>(idx)]);
      if (!plan) continue;
      const model::ClientId i = order[static_cast<std::size_t>(b0 + idx)];
      if (!mover.fits(i, *plan)) {
        ++reprices;
        plan = best_insertion(state.view(), i, opts);
        if (!plan) continue;
      }
      if (opts.allow_rejection && plan->score < 0.0) continue;
      mover.apply(i, plan, profit_now);
    }
  }
  return std::move(state).release();
}

// Two blocks of the scale family's cloud cut into 20-server clusters, where
// most snapshot plans go stale: pools of 1 (inline), 2, 4 and 8 workers
// must give the sequential merge's placements and profit bit for bit, with
// the 4-cluster window and with every cluster probed (each client then
// depends on the one before it).
TEST(ShardedGreedy, ParallelMergeMatchesSequentialMerge) {
  workload::ScenarioParams params = workload::scaled_params(1500);
  params.servers_per_cluster = 20;
  params.num_clusters = 66;
  const model::Cloud cloud = workload::make_scenario(params, 31);
  const auto order = shuffled_order(cloud, 37);
  for (int fanout : {4, 0}) {
    AllocatorOptions opts;
    opts.num_shards = 8;
    opts.cluster_fanout = fanout;
    int reprices = 0;
    const model::Allocation want =
        sequential_merge(cloud, order, opts, reprices);
    EXPECT_GT(reprices, 1000) << "fanout " << fanout;
    for (int workers : {1, 2, 4, 8}) {
      if (fanout == 0 && workers != 4) continue;
      dist::ThreadPool pool(workers);
      const model::Allocation got = sharded_greedy_insert(
          cloud, order, opts, dist::ParallelEval(&pool));
      EXPECT_EQ(bits(model::profit(got)), bits(model::profit(want)))
          << "fanout " << fanout << " workers " << workers;
      expect_identical(want, got);
    }
  }
}

TEST(ShardedGreedy, ProducesFeasibleAllocation) {
  const auto cloud = make_cloud(70, 17);
  const auto order = shuffled_order(cloud, 3);
  AllocatorOptions opts;
  opts.num_shards = 4;
  const model::Allocation alloc = sharded_greedy_insert(cloud, order, opts);
  const auto violations = model::check_feasibility(alloc);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().describe());
}

TEST(ShardedGreedy, EmptyOrderIsANoOp) {
  const auto cloud = make_cloud(10, 19);
  AllocatorOptions opts;
  opts.num_shards = 4;
  const model::Allocation alloc = sharded_greedy_insert(cloud, {}, opts);
  for (model::ClientId i : cloud.client_ids())
    EXPECT_FALSE(alloc.is_assigned(i));
}

// cluster_fanout restricts probing but stays deterministic and feasible:
// same options, two runs, identical allocations; the window never probes
// the same client into different clusters across shard counts.
TEST(ClusterFanout, DeterministicAndFeasible) {
  workload::ScenarioParams params;
  params.num_clients = 80;
  params.num_clusters = 10;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, 23);
  const auto order = shuffled_order(cloud, 5);

  AllocatorOptions opts;
  opts.num_shards = 1;
  opts.cluster_fanout = 3;
  const model::Allocation a = sharded_greedy_insert(cloud, order, opts);
  EXPECT_TRUE(model::is_feasible(a));
  EXPECT_GT(model::profit(a), 0.0);

  for (int shards : {2, 8}) {
    AllocatorOptions sopts = opts;
    sopts.num_shards = shards;
    const model::Allocation b = sharded_greedy_insert(cloud, order, sopts);
    expect_identical(a, b);
  }
}

}  // namespace
}  // namespace cloudalloc::alloc
