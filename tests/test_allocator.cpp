#include "alloc/allocator.h"

#include <gtest/gtest.h>

#include "alloc/initial.h"
#include "baselines/proportional_share.h"
#include "baselines/random_alloc.h"
#include "common/rng.h"
#include "exhaustive.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

using model::Allocation;

workload::ScenarioParams small_params() {
  workload::ScenarioParams params;
  params.num_clients = 30;
  params.servers_per_cluster = 8;
  return params;
}

TEST(ResourceAllocator, ProducesFeasibleProfitableAllocation) {
  const auto cloud = workload::make_scenario(small_params(), 101);
  ResourceAllocator allocator;
  const auto result = allocator.run(cloud);
  EXPECT_TRUE(model::is_feasible(result.allocation));
  EXPECT_GT(result.report.final_profit, 0.0);
  EXPECT_GE(result.report.final_profit, result.report.initial_profit - 1e-9);
  EXPECT_EQ(result.report.unassigned_clients, 0);
  EXPECT_GT(result.report.rounds_run, 0);
}

TEST(ResourceAllocator, LocalSearchImprovesInitialSolution) {
  const auto cloud = workload::make_scenario(small_params(), 103);
  ResourceAllocator allocator;
  const auto result = allocator.run(cloud);
  // On random scenarios the local search nearly always finds something.
  EXPECT_GE(result.report.final_profit, result.report.initial_profit);
}

TEST(ResourceAllocator, ImproveIsMonotoneFromArbitraryStart) {
  const auto cloud = workload::make_scenario(small_params(), 107);
  AllocatorOptions opts;
  Rng rng(107);
  Allocation random_start =
      baselines::random_allocation(cloud, opts, rng);
  const double before = model::profit(random_start);
  ResourceAllocator allocator(opts);
  const auto result = allocator.improve(std::move(random_start));
  EXPECT_GE(result.report.final_profit, before - 1e-9);
  EXPECT_TRUE(model::is_feasible(result.allocation));
}

TEST(ResourceAllocator, DeterministicGivenSeed) {
  const auto cloud = workload::make_scenario(small_params(), 109);
  AllocatorOptions opts;
  opts.seed = 5;
  ResourceAllocator allocator(opts);
  const double p1 = allocator.run(cloud).report.final_profit;
  const double p2 = allocator.run(cloud).report.final_profit;
  EXPECT_DOUBLE_EQ(p1, p2);
}

TEST(ResourceAllocator, BeatsProportionalShare) {
  const auto cloud = workload::make_scenario(small_params(), 113);
  ResourceAllocator allocator;
  const auto ours = allocator.run(cloud);
  const auto ps =
      baselines::proportional_share_allocate(cloud, baselines::PsOptions{});
  EXPECT_GT(ours.report.final_profit, ps.profit);
}

TEST(ResourceAllocator, StageTogglesAreRespected) {
  const auto cloud = workload::make_scenario(small_params(), 127);
  AllocatorOptions off;
  off.enable_adjust_shares = false;
  off.enable_adjust_dispersion = false;
  off.enable_turn_on = false;
  off.enable_turn_off = false;
  off.enable_reassign = false;
  off.max_local_search_rounds = 3;
  ResourceAllocator bare(off);
  const auto result = bare.run(cloud);
  // With every stage off, improvement rounds change nothing.
  EXPECT_NEAR(result.report.final_profit, result.report.initial_profit,
              1e-9);
}

TEST(ResourceAllocator, SurvivesOverload) {
  workload::ScenarioParams params;
  params.num_clients = 50;
  const auto cloud = workload::make_overloaded_scenario(params, 131, 4.0);
  ResourceAllocator allocator;
  const auto result = allocator.run(cloud);
  EXPECT_TRUE(model::is_feasible(result.allocation));
  EXPECT_GT(result.report.unassigned_clients, 0);  // genuinely overloaded
}

TEST(ResourceAllocator, NearOptimalOnTinyInstanceVsExhaustive) {
  const auto cloud = workload::make_tiny_scenario(4);
  AllocatorOptions opts;
  opts.num_initial_solutions = 5;
  ResourceAllocator allocator(opts);
  const auto ours = allocator.run(cloud);

  // Exhaustive over cluster assignments, decoding with the same insertion
  // machinery plus full improvement.
  double best = -1e300;
  opt::enumerate_assignments(
      cloud.num_clients(), cloud.num_clusters(),
      [&](const std::vector<int>& a) {
        std::vector<model::ClusterId> assignment(a.begin(), a.end());
        Allocation alloc = build_from_assignment(cloud, assignment, opts);
        const auto improved = allocator.improve(std::move(alloc));
        return improved.report.final_profit;
      },
      nullptr, &best);

  // The paper reports <=9% gaps at 20+ clients; tiny 4-client instances
  // are the heuristic's hardest regime, so allow a 20% band here (the
  // Figure-4 bench checks the paper-scale gap).
  EXPECT_GE(ours.report.final_profit, 0.80 * best);
}

TEST(ResourceAllocator, TimeBudgetCutsRoundsShort) {
  workload::ScenarioParams params;
  params.num_clients = 60;
  const auto cloud = workload::make_scenario(params, 137);

  AllocatorOptions unlimited;
  const auto full = ResourceAllocator(unlimited).run(cloud);

  AllocatorOptions tight;
  tight.time_budget_ms = 1.0;  // well under one round's cost at N=60
  const auto budgeted = ResourceAllocator(tight).run(cloud);

  EXPECT_LE(budgeted.report.rounds_run, full.report.rounds_run);
  EXPECT_LE(budgeted.report.rounds_run, 2);
  // Still a valid, committed allocation.
  EXPECT_TRUE(model::is_feasible(budgeted.allocation));
  EXPECT_GE(budgeted.report.final_profit,
            budgeted.report.initial_profit - 1e-9);
}

TEST(ResourceAllocator, ZeroBudgetMeansUnlimited) {
  workload::ScenarioParams params;
  params.num_clients = 20;
  const auto cloud = workload::make_scenario(params, 139);
  AllocatorOptions opts;
  opts.time_budget_ms = 0.0;
  const auto result = ResourceAllocator(opts).run(cloud);
  EXPECT_GT(result.report.rounds_run, 0);
}

class AllocatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorProperty, FeasibleAndBeatsRandomAcrossSeeds) {
  workload::ScenarioParams params;
  params.num_clients = 25;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, GetParam());
  AllocatorOptions opts;
  opts.seed = GetParam();
  ResourceAllocator allocator(opts);
  const auto result = allocator.run(cloud);
  ASSERT_TRUE(model::is_feasible(result.allocation));

  Rng rng(GetParam() + 1000);
  const double random_profit =
      model::profit(baselines::random_allocation(cloud, opts, rng));
  EXPECT_GE(result.report.final_profit, random_profit);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace cloudalloc::alloc
