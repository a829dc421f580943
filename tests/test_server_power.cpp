#include "alloc/server_power.h"

#include <gtest/gtest.h>

#include "alloc/initial.h"
#include "common/rng.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

using model::AllocState;
using model::Placement;

TEST(TurnOff, ConsolidatesWastefulSpread) {
  const auto cloud = workload::make_tiny_scenario(2);
  AllocatorOptions opts;
  AllocState state(cloud);
  // Two tiny clients on two separate servers of cluster 0: paying two
  // fixed costs where one server would do.
  state.assign(model::ClientId{0}, model::ClusterId{0},
               {Placement{model::ServerId{0}, 1.0, 0.35, 0.35}});
  state.assign(model::ClientId{1}, model::ClusterId{0},
               {Placement{model::ServerId{1}, 1.0, 0.35, 0.35}});
  const double before = state.profit();
  const int active_before = state.ledger().num_active_servers();
  const double delta = turn_off_servers(state, model::ClusterId{0}, opts);
  EXPECT_GE(delta, 0.0);
  EXPECT_GE(state.profit(), before - 1e-9);
  EXPECT_LE(state.ledger().num_active_servers(), active_before);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
  // Both clients must still be served.
  EXPECT_TRUE(state.ledger().is_assigned(model::ClientId{0}));
  EXPECT_TRUE(state.ledger().is_assigned(model::ClientId{1}));
}

TEST(TurnOff, LeavesNecessaryServersAlone) {
  const auto cloud = workload::make_tiny_scenario(8);
  AllocatorOptions opts;
  AllocState state(cloud);
  // Clients 6 (lambda 4.0, alpha_p 0.8) and 7 (lambda 4.5, alpha_p 0.85):
  // their combined load exceeds even the large server's capacity, so no
  // single server of cluster 0 can host both — consolidation must fail.
  state.assign(model::ClientId{6}, model::ClusterId{0},
               {Placement{model::ServerId{0}, 1.0, 0.9, 0.9}});
  state.assign(model::ClientId{7}, model::ClusterId{0},
               {Placement{model::ServerId{1}, 1.0, 0.9, 0.9}});
  turn_off_servers(state, model::ClusterId{0}, opts);
  EXPECT_TRUE(state.ledger().is_assigned(model::ClientId{6}));
  EXPECT_TRUE(state.ledger().is_assigned(model::ClientId{7}));
  EXPECT_EQ(state.ledger().num_active_servers(), 2);
}

TEST(TurnOn, HelpsDegradedClients) {
  const auto cloud = workload::make_tiny_scenario(3);
  AllocatorOptions opts;
  AllocState state(cloud);
  // Cram three clients onto one server with slim shares: they are all
  // degraded, and an idle server (id 1) is available.
  state.assign(model::ClientId{0}, model::ClusterId{0},
               {Placement{model::ServerId{0}, 1.0, 0.20, 0.20}});
  state.assign(model::ClientId{1}, model::ClusterId{0},
               {Placement{model::ServerId{0}, 1.0, 0.30, 0.30}});
  state.assign(model::ClientId{2}, model::ClusterId{0},
               {Placement{model::ServerId{0}, 1.0, 0.45, 0.45}});
  const double before = state.profit();
  const double delta = turn_on_servers(state, model::ClusterId{0}, opts);
  EXPECT_GE(delta, 0.0);
  EXPECT_GE(state.profit(), before - 1e-9);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

TEST(TurnOn, NoOpWhenEveryoneHappy) {
  const auto cloud = workload::make_tiny_scenario(1);
  AllocatorOptions opts;
  AllocState state(cloud);
  // lavish shares
  state.assign(model::ClientId{0}, model::ClusterId{0},
               {Placement{model::ServerId{1}, 1.0, 0.9, 0.9}});
  const double delta = turn_on_servers(state, model::ClusterId{0}, opts);
  EXPECT_DOUBLE_EQ(delta, 0.0);
}

TEST(AdjustServerPower, MonotoneAcrossClusters) {
  workload::ScenarioParams params;
  params.num_clients = 30;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, 31);
  AllocatorOptions opts;
  Rng rng(31);
  AllocState state(build_initial_solution(cloud, opts, rng));
  const double before = state.profit();
  const double delta = adjust_server_power(state, opts);
  EXPECT_GE(delta, -1e-9);
  EXPECT_GE(state.profit(), before - 1e-9);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

class ServerPowerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServerPowerProperty, NeverLosesClientsOrFeasibility) {
  workload::ScenarioParams params;
  params.num_clients = 24;
  params.servers_per_cluster = 5;
  const auto cloud = workload::make_scenario(params, GetParam());
  AllocatorOptions opts;
  Rng rng(GetParam());
  AllocState state(build_initial_solution(cloud, opts, rng));
  int assigned_before = 0;
  for (model::ClientId i : cloud.client_ids())
    if (state.ledger().is_assigned(i)) ++assigned_before;
  adjust_server_power(state, opts);
  int assigned_after = 0;
  for (model::ClientId i : cloud.client_ids())
    if (state.ledger().is_assigned(i)) ++assigned_after;
  EXPECT_GE(assigned_after, assigned_before);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerPowerProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace cloudalloc::alloc
