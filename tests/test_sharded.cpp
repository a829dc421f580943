// Shard-count determinism of the sharded greedy (alloc/sharded.h): every
// plan in a block is priced against the frozen block snapshot, so the
// resulting allocation must be bit-identical at ANY shard count and
// thread count. Also covered: the cluster_fanout
// probe window is a pure function of the client id, and sharded results
// stay feasible.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/allocator.h"
#include "alloc/initial.h"
#include "alloc/sharded.h"
#include "common/rng.h"
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
      EXPECT_DOUBLE_EQ(pa[s].psi, pb[s].psi);
      EXPECT_DOUBLE_EQ(pa[s].phi_p, pb[s].phi_p);
      EXPECT_DOUBLE_EQ(pa[s].phi_n, pb[s].phi_n);
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
  const model::Allocation base =
      sharded_greedy_insert(model::Allocation(cloud), order, base_opts);
  const double base_profit = model::profit(base);
  EXPECT_GT(base_profit, 0.0);

  for (int shards : {1, 2, 4, 8}) {
    AllocatorOptions opts;
    opts.num_shards = shards;
    const model::Allocation run =
        sharded_greedy_insert(model::Allocation(cloud), order, opts);
    EXPECT_DOUBLE_EQ(model::profit(run), base_profit) << "shards " << shards;
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
      EXPECT_DOUBLE_EQ(run.report.final_profit, base.report.final_profit)
          << "shards " << shards << " threads " << threads;
      expect_identical(base.allocation, run.allocation);
    }
  }
}

TEST(ShardedGreedy, ProducesFeasibleAllocation) {
  const auto cloud = make_cloud(70, 17);
  const auto order = shuffled_order(cloud, 3);
  AllocatorOptions opts;
  opts.num_shards = 4;
  const model::Allocation alloc =
      sharded_greedy_insert(model::Allocation(cloud), order, opts);
  const auto violations = model::check_feasibility(alloc);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().describe());
}

TEST(ShardedGreedy, EmptyOrderIsANoOp) {
  const auto cloud = make_cloud(10, 19);
  AllocatorOptions opts;
  opts.num_shards = 4;
  const model::Allocation alloc =
      sharded_greedy_insert(model::Allocation(cloud), {}, opts);
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
  const model::Allocation a =
      sharded_greedy_insert(model::Allocation(cloud), order, opts);
  EXPECT_TRUE(model::is_feasible(a));
  EXPECT_GT(model::profit(a), 0.0);

  for (int shards : {2, 8}) {
    AllocatorOptions sopts = opts;
    sopts.num_shards = shards;
    const model::Allocation b =
        sharded_greedy_insert(model::Allocation(cloud), order, sopts);
    expect_identical(a, b);
  }
}

}  // namespace
}  // namespace cloudalloc::alloc
