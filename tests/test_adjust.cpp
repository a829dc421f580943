#include <gtest/gtest.h>

#include "alloc/adjust_dispersion.h"
#include "alloc/adjust_shares.h"
#include "alloc/initial.h"
#include "common/rng.h"
#include "model/alloc_state.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

using model::AllocState;
using model::Placement;

TEST(AdjustShares, ImprovesDeliberatelyBadSplit) {
  const auto cloud = workload::make_tiny_scenario(2);
  AllocatorOptions opts;
  AllocState state(cloud);
  // Two clients on server 0; client 1 (heavier load) starved, client 0
  // hogging. A rebalance must help.
  state.assign(model::ClientId{0}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.80, 0.80}});
  state.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.20, 0.20}});
  const double before = state.profit();
  const double delta = adjust_resource_shares(state, model::ServerId{0}, opts);
  EXPECT_GT(delta, 0.0);
  EXPECT_NEAR(state.profit(), before + delta, 1e-9);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

TEST(AdjustShares, NoOpOnEmptyServer) {
  const auto cloud = workload::make_tiny_scenario(2);
  AllocatorOptions opts;
  AllocState state(cloud);
  EXPECT_DOUBLE_EQ(adjust_resource_shares(state, model::ServerId{0}, opts), 0.0);
}

TEST(AdjustShares, NeverDecreasesProfit) {
  workload::ScenarioParams params;
  params.num_clients = 30;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, 17);
  AllocatorOptions opts;
  Rng rng(17);
  AllocState state(build_initial_solution(cloud, opts, rng));
  const double before = state.profit();
  const double delta = adjust_all_shares(state, opts);
  EXPECT_GE(delta, 0.0);
  EXPECT_GE(state.profit(), before - 1e-9);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

TEST(AdjustDispersion, NoOpForSingleSlice) {
  const auto cloud = workload::make_tiny_scenario(2);
  AllocatorOptions opts;
  AllocState state(cloud);
  state.assign(model::ClientId{0}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.5, 0.5}});
  EXPECT_DOUBLE_EQ(adjust_dispersion_rates(state, model::ClientId{0}, opts), 0.0);
}

TEST(AdjustDispersion, RebalancesLopsidedSplit) {
  const auto cloud = workload::make_tiny_scenario(1);
  AllocatorOptions opts;
  AllocState state(cloud);
  // Client 0 split 90/10 over two servers with equal shares: convex
  // delay says closer-to-even (weighted by capacity) is better.
  state.assign(model::ClientId{0}, model::ClusterId{0},
               {Placement{model::ServerId{0}, 0.9, 0.4, 0.4}, Placement{model::ServerId{1}, 0.1, 0.4, 0.4}});
  const double before = state.profit();
  const double delta = adjust_dispersion_rates(state, model::ClientId{0}, opts);
  EXPECT_GE(delta, 0.0);
  EXPECT_GE(state.profit(), before - 1e-9);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

TEST(AdjustDispersion, DropsNeedlessSecondServer) {
  // Very light client split over two servers: the linear P1 cost of the
  // second server can make consolidation worthwhile; at minimum the step
  // must not hurt.
  const auto cloud = workload::make_tiny_scenario(1);
  AllocatorOptions opts;
  AllocState state(cloud);
  state.assign(model::ClientId{0}, model::ClusterId{0},
               {Placement{model::ServerId{0}, 0.5, 0.45, 0.45}, Placement{model::ServerId{1}, 0.5, 0.05, 0.05}});
  const double before = state.profit();
  adjust_dispersion_rates(state, model::ClientId{0}, opts);
  EXPECT_GE(state.profit(), before - 1e-9);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

TEST(AdjustDispersion, NeverDecreasesProfitOnScenarios) {
  workload::ScenarioParams params;
  params.num_clients = 30;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, 23);
  AllocatorOptions opts;
  Rng rng(23);
  AllocState state(build_initial_solution(cloud, opts, rng));
  const double before = state.profit();
  const double delta = adjust_all_dispersions(state, opts);
  EXPECT_GE(delta, 0.0);
  EXPECT_GE(state.profit(), before - 1e-9);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

class AdjustProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdjustProperty, RepeatedAdjustmentMonotoneAndFeasible) {
  workload::ScenarioParams params;
  params.num_clients = 20;
  params.servers_per_cluster = 5;
  const auto cloud = workload::make_scenario(params, GetParam());
  AllocatorOptions opts;
  Rng rng(GetParam());
  AllocState state(build_initial_solution(cloud, opts, rng));
  double profit_now = state.profit();
  for (int round = 0; round < 3; ++round) {
    adjust_all_shares(state, opts);
    adjust_all_dispersions(state, opts);
    const double next = state.profit();
    EXPECT_GE(next, profit_now - 1e-9);
    profit_now = next;
    ASSERT_TRUE(model::is_feasible(state.ledger()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdjustProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace cloudalloc::alloc
