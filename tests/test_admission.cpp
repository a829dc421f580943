// Admission-control extension: with allow_rejection the allocator may
// decline clients whose SLA revenue cannot cover the energy they cost.
#include <gtest/gtest.h>

#include "alloc/allocator.h"
#include "alloc/reassign.h"
#include "model/alloc_state.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

TEST(Admission, OffByDefaultServesEveryoneWhoFits) {
  workload::ScenarioParams params;
  params.num_clients = 25;
  const auto cloud = workload::make_scenario(params, 201);
  const auto result = ResourceAllocator().run(cloud);
  EXPECT_EQ(result.report.unassigned_clients, 0);
}

TEST(Admission, NeverDropsProfitableClients) {
  workload::ScenarioParams params;
  params.num_clients = 25;
  const auto cloud = workload::make_scenario(params, 203);
  AllocatorOptions opts;
  opts.allow_rejection = true;
  const auto result = ResourceAllocator(opts).run(cloud);
  // Default scenarios are profitable per client: nobody gets dropped.
  EXPECT_EQ(result.report.unassigned_clients, 0);
  EXPECT_TRUE(model::is_feasible(result.allocation));
}

TEST(Admission, RejectsLossMakingClients) {
  // A scenario where serving is a money-loser: flat tiny prices against
  // normal server costs.
  workload::ScenarioParams params;
  params.num_clients = 20;
  params.base_price_lo = 0.01;
  params.base_price_hi = 0.02;  // revenue ~0.05 per client
  const auto cloud = workload::make_scenario(params, 207);

  AllocatorOptions serve_all;
  const auto forced = ResourceAllocator(serve_all).run(cloud);

  AllocatorOptions reject;
  reject.allow_rejection = true;
  const auto selective = ResourceAllocator(reject).run(cloud);

  EXPECT_GT(selective.report.final_profit, forced.report.final_profit);
  EXPECT_GT(selective.report.unassigned_clients, 0);
  // Declining everyone yields exactly zero; never below.
  EXPECT_GE(selective.report.final_profit, -1e-9);
}

TEST(Admission, DropPassIsNoOpWhenDisabled) {
  workload::ScenarioParams params;
  params.num_clients = 15;
  const auto cloud = workload::make_scenario(params, 211);
  AllocatorOptions opts;  // allow_rejection = false
  model::AllocState state(ResourceAllocator(opts).run(cloud).allocation);
  EXPECT_DOUBLE_EQ(drop_unprofitable_clients(state, opts), 0.0);
}

TEST(Admission, DropPassRemovesOnlyNetLosers) {
  workload::ScenarioParams params;
  params.num_clients = 15;
  params.base_price_lo = 0.01;
  params.base_price_hi = 0.02;
  const auto cloud = workload::make_scenario(params, 213);
  AllocatorOptions serve_all;
  model::AllocState state(ResourceAllocator(serve_all).run(cloud).allocation);

  AllocatorOptions reject = serve_all;
  reject.allow_rejection = true;
  const double before = state.profit();
  const double delta = drop_unprofitable_clients(state, reject);
  EXPECT_GE(delta, 0.0);
  EXPECT_NEAR(state.profit(), before + delta, 1e-9);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

}  // namespace
}  // namespace cloudalloc::alloc
