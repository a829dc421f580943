#include "alloc/initial.h"

#include <gtest/gtest.h>

#include "model/evaluator.h"
#include "model/feasibility.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

using model::Allocation;

TEST(GreedyInsert, AllClientsAssignedWhenCapacityAmple) {
  const auto cloud = workload::make_tiny_scenario(4);
  AllocatorOptions opts;
  std::vector<model::ClientId> order{model::ClientId{0}, model::ClientId{1},
                                     model::ClientId{2}, model::ClientId{3}};
  const Allocation alloc = greedy_insert(cloud, order, opts);
  for (model::ClientId i : cloud.client_ids())
    EXPECT_TRUE(alloc.is_assigned(i));
  EXPECT_TRUE(model::is_feasible(alloc));
  EXPECT_GT(model::profit(alloc), 0.0);
}

TEST(GreedyInsert, OrderChangesOutcomeButNotFeasibility) {
  workload::ScenarioParams params;
  params.num_clients = 30;
  params.servers_per_cluster = 5;
  const auto cloud = workload::make_scenario(params, 11);
  AllocatorOptions opts;
  std::vector<model::ClientId> fwd, rev;
  for (model::ClientId i : cloud.client_ids()) fwd.push_back(i);
  rev.assign(fwd.rbegin(), fwd.rend());
  const Allocation a = greedy_insert(cloud, fwd, opts);
  const Allocation b = greedy_insert(cloud, rev, opts);
  EXPECT_TRUE(model::is_feasible(a));
  EXPECT_TRUE(model::is_feasible(b));
}

TEST(BuildInitialSolution, PicksBestOfMultiStart) {
  workload::ScenarioParams params;
  params.num_clients = 25;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, 5);

  AllocatorOptions one;
  one.num_initial_solutions = 1;
  AllocatorOptions many;
  many.num_initial_solutions = 6;

  // Multi-start with the same seed sees the single-start's order first,
  // so it can only do better or equal.
  Rng rng_one(9), rng_many(9);
  const double p_one =
      model::profit(build_initial_solution(cloud, one, rng_one));
  const double p_many =
      model::profit(build_initial_solution(cloud, many, rng_many));
  EXPECT_GE(p_many, p_one - 1e-9);
}

TEST(BuildInitialSolution, DeterministicGivenSeed) {
  workload::ScenarioParams params;
  params.num_clients = 15;
  const auto cloud = workload::make_scenario(params, 5);
  AllocatorOptions opts;
  Rng r1(3), r2(3);
  const double p1 = model::profit(build_initial_solution(cloud, opts, r1));
  const double p2 = model::profit(build_initial_solution(cloud, opts, r2));
  EXPECT_DOUBLE_EQ(p1, p2);
}

TEST(BuildFromAssignment, HonorsTheGivenClusters) {
  const auto cloud = workload::make_tiny_scenario(4);
  AllocatorOptions opts;
  const std::vector<model::ClusterId> assignment{
      model::ClusterId{0}, model::ClusterId{1}, model::ClusterId{0},
      model::ClusterId{1}};
  const Allocation alloc = build_from_assignment(cloud, assignment, opts);
  for (int i_raw = 0; i_raw < 4; ++i_raw) {
    const model::ClientId i{i_raw};
    if (!alloc.is_assigned(i)) continue;
    EXPECT_EQ(alloc.cluster_of(i), assignment[i.index()]);
  }
  EXPECT_TRUE(model::is_feasible(alloc));
}

TEST(BuildFromAssignment, SkipsNoCluster) {
  const auto cloud = workload::make_tiny_scenario(2);
  AllocatorOptions opts;
  const std::vector<model::ClusterId> assignment{model::kNoCluster,
                                                 model::ClusterId{1}};
  const Allocation alloc = build_from_assignment(cloud, assignment, opts);
  EXPECT_FALSE(alloc.is_assigned(model::ClientId{0}));
  EXPECT_TRUE(alloc.is_assigned(model::ClientId{1}));
}

TEST(BuildFromAssignment, OverloadLeavesSomeUnassigned) {
  workload::ScenarioParams params;
  params.num_clients = 40;
  const auto cloud = workload::make_overloaded_scenario(params, 21, 4.0);
  AllocatorOptions opts;
  std::vector<model::ClusterId> all_zero(40, model::ClusterId{0});
  const Allocation alloc = build_from_assignment(cloud, all_zero, opts);
  int unassigned = 0;
  for (model::ClientId i : cloud.client_ids())
    if (!alloc.is_assigned(i)) ++unassigned;
  EXPECT_GT(unassigned, 0);
  EXPECT_TRUE(model::is_feasible(alloc));
}

}  // namespace
}  // namespace cloudalloc::alloc
