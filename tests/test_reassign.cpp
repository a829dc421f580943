#include "alloc/reassign.h"

#include <gtest/gtest.h>

#include "alloc/initial.h"
#include "common/rng.h"
#include "dist/parallel_eval.h"
#include "dist/thread_pool.h"
#include "model/alloc_state.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

using model::Allocation;
using model::AllocState;

TEST(Reassign, ImprovesBadClusterAssignment) {
  workload::ScenarioParams params;
  params.num_clients = 30;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, 41);
  AllocatorOptions opts;
  // Cram everyone into cluster 0.
  std::vector<model::ClusterId> all_zero(30, model::ClusterId{0});
  AllocState state(build_from_assignment(cloud, all_zero, opts));
  const double before = state.profit();
  const double delta = reassign_pass(state, opts);
  EXPECT_GT(delta, 0.0);
  EXPECT_GT(state.profit(), before);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

TEST(Reassign, RetriesUnassignedClients) {
  workload::ScenarioParams params;
  params.num_clients = 40;
  params.servers_per_cluster = 8;
  const auto cloud = workload::make_scenario(params, 43);
  AllocatorOptions opts;
  // Everyone in cluster 0 overloads it, leaving some unassigned.
  std::vector<model::ClusterId> all_zero(40, model::ClusterId{0});
  AllocState state(build_from_assignment(cloud, all_zero, opts));
  int unassigned_before = 0;
  for (model::ClientId i : cloud.client_ids())
    if (!state.ledger().is_assigned(i)) ++unassigned_before;
  reassign_until_steady(state, opts);
  int unassigned_after = 0;
  for (model::ClientId i : cloud.client_ids())
    if (!state.ledger().is_assigned(i)) ++unassigned_after;
  EXPECT_LE(unassigned_after, unassigned_before);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

TEST(Reassign, SteadyStateIsFixedPoint) {
  workload::ScenarioParams params;
  params.num_clients = 20;
  const auto cloud = workload::make_scenario(params, 47);
  AllocatorOptions opts;
  Rng rng(47);
  AllocState state(build_initial_solution(cloud, opts, rng));
  reassign_until_steady(state, opts, 20);
  const double steady = state.profit();
  const double extra = reassign_pass(state, opts);
  EXPECT_NEAR(state.profit(), steady, 1e-6 * std::abs(steady) + 1e-6);
  EXPECT_LE(extra, 1e-4 * std::max(std::abs(steady), 1.0));
}

TEST(ReassignSnapshot, ImprovesBadClusterAssignment) {
  workload::ScenarioParams params;
  params.num_clients = 30;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, 41);
  AllocatorOptions opts;
  std::vector<model::ClusterId> all_zero(30, model::ClusterId{0});
  AllocState state(build_from_assignment(cloud, all_zero, opts));
  const double before = state.profit();
  const double delta = reassign_pass_snapshot(state, opts);
  EXPECT_GT(delta, 0.0);
  EXPECT_GT(state.profit(), before);
  EXPECT_TRUE(model::is_feasible(state.ledger()));
}

TEST(ReassignSnapshot, IdenticalInlineAndPooled) {
  workload::ScenarioParams params;
  params.num_clients = 35;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, 43);
  AllocatorOptions opts;
  std::vector<model::ClusterId> all_zero(35, model::ClusterId{0});
  AllocState inline_state(build_from_assignment(cloud, all_zero, opts));
  AllocState pooled_state(inline_state.ledger().clone());

  const double d1 = reassign_pass_snapshot(inline_state, opts);
  dist::ThreadPool pool(4);
  dist::ParallelEval eval(&pool);
  const double d2 = reassign_pass_snapshot(pooled_state, opts, eval);

  EXPECT_DOUBLE_EQ(d1, d2);
  const Allocation& inline_alloc = inline_state.ledger();
  const Allocation& pooled_alloc = pooled_state.ledger();
  for (model::ClientId i : cloud.client_ids()) {
    ASSERT_EQ(inline_alloc.is_assigned(i), pooled_alloc.is_assigned(i));
    if (!inline_alloc.is_assigned(i)) continue;
    EXPECT_EQ(inline_alloc.cluster_of(i), pooled_alloc.cluster_of(i));
    const auto& pa = inline_alloc.placements(i);
    const auto& pb = pooled_alloc.placements(i);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t s = 0; s < pa.size(); ++s) {
      EXPECT_EQ(pa[s].server, pb[s].server);
      EXPECT_DOUBLE_EQ(pa[s].psi, pb[s].psi);
      EXPECT_DOUBLE_EQ(pa[s].phi_p, pb[s].phi_p);
    }
  }
}

TEST(ReassignSnapshot, MonotoneOnGreedyStart) {
  workload::ScenarioParams params;
  params.num_clients = 25;
  params.servers_per_cluster = 5;
  const auto cloud = workload::make_scenario(params, 53);
  AllocatorOptions opts;
  Rng rng(53);
  AllocState state(build_initial_solution(cloud, opts, rng));
  double profit_now = state.profit();
  for (int round = 0; round < 3; ++round) {
    reassign_pass_snapshot(state, opts);
    const double next = state.profit();
    EXPECT_GE(next, profit_now - 1e-9);
    profit_now = next;
    ASSERT_TRUE(model::is_feasible(state.ledger()));
  }
}

class ReassignProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReassignProperty, MonotoneAndFeasible) {
  workload::ScenarioParams params;
  params.num_clients = 25;
  params.servers_per_cluster = 5;
  const auto cloud = workload::make_scenario(params, GetParam());
  AllocatorOptions opts;
  Rng rng(GetParam() * 7 + 1);
  // Random (not greedy) start exercises more reassign paths.
  std::vector<model::ClusterId> assignment(25);
  for (auto& k : assignment)
    k = static_cast<model::ClusterId>(
        rng.uniform_int(0, cloud.num_clusters() - 1));
  AllocState state(build_from_assignment(cloud, assignment, opts));
  double profit_now = state.profit();
  for (int round = 0; round < 3; ++round) {
    reassign_pass(state, opts);
    const double next = state.profit();
    EXPECT_GE(next, profit_now - 1e-9);
    profit_now = next;
    ASSERT_TRUE(model::is_feasible(state.ledger()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassignProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace cloudalloc::alloc
