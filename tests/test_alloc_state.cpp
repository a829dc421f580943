// The allocation-state engine's contract: the aggregates match a
// from-scratch recomputation under every committed mutation, phases
// preserve the invariants, checkpoints round-trip, cluster savepoints roll
// back bitwise and guard their cluster, corruption and unrestored
// speculation trip the checker, and the engine-backed allocator is
// bit-identical at every thread count and reproduces the 1k-client
// witness.
#include "model/alloc_state.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/adjust_dispersion.h"
#include "alloc/adjust_shares.h"
#include "alloc/allocator.h"
#include "alloc/assign_distribute.h"
#include "alloc/initial.h"
#include "alloc/reassign.h"
#include "alloc/server_power.h"
#include "common/rng.h"
#include "dist/parallel_eval.h"
#include "model/evaluator.h"
#include "workload/scenario.h"

namespace cloudalloc::model {
namespace {

workload::ScenarioParams small_params() {
  workload::ScenarioParams params;
  params.num_clients = 30;
  params.servers_per_cluster = 8;
  return params;
}

TEST(AllocState, AssignClearFuzzKeepsLedgerAndViewInLockstep) {
  const auto cloud = workload::make_scenario(small_params(), 3);
  alloc::AllocatorOptions opts;
  AllocState state(cloud);
  Rng rng(17);

  for (int step = 0; step < 400; ++step) {
    const auto i =
        static_cast<ClientId>(rng.index(static_cast<std::size_t>(
            cloud.num_clients())));
    if (state.ledger().is_assigned(i) && rng.uniform() < 0.4) {
      state.clear(i);
    } else {
      const auto k = static_cast<ClusterId>(
          rng.uniform_int(0, cloud.num_clusters() - 1));
      const auto plan = alloc::assign_distribute(state.view(), i, k, opts);
      if (!plan) continue;
      state.assign(i, plan->cluster, plan->placements);
    }
    if (step % 50 == 0) {
      ASSERT_TRUE(state.aggregates_consistent());
    }
  }
  EXPECT_TRUE(state.aggregates_consistent());
}

TEST(AllocState, EnginePhasesPreserveInvariants) {
  const auto cloud = workload::make_scenario(small_params(), 7);
  alloc::AllocatorOptions opts;
  Rng rng(opts.seed);
  dist::ParallelEval eval;
  AllocState state(alloc::build_initial_solution(cloud, opts, rng, eval));
  ASSERT_TRUE(state.aggregates_consistent());

  alloc::reassign_pass(state, opts);
  EXPECT_TRUE(state.aggregates_consistent());
  alloc::adjust_all_shares(state, opts);
  EXPECT_TRUE(state.aggregates_consistent());
  alloc::adjust_all_dispersions(state, opts);
  EXPECT_TRUE(state.aggregates_consistent());
  alloc::adjust_server_power(state, opts);
  EXPECT_TRUE(state.aggregates_consistent());
  alloc::reassign_pass_snapshot(state, opts, eval);
  EXPECT_TRUE(state.aggregates_consistent());
}

TEST(AllocState, CheckpointMaterializeRoundTrips) {
  const auto cloud = workload::make_scenario(small_params(), 11);
  alloc::AllocatorOptions opts;
  Rng rng(opts.seed);
  dist::ParallelEval eval;
  AllocState state(alloc::build_initial_solution(cloud, opts, rng, eval));

  const double profit_at_ckpt = state.profit();
  const AllocState::Checkpoint ckpt = state.checkpoint(profit_at_ckpt);

  // Mutate past the checkpoint; materialization must restore the old
  // placements, not the current ones.
  alloc::adjust_all_shares(state, opts);
  alloc::reassign_pass(state, opts);

  const Allocation restored = state.materialize(ckpt);
  for (ClientId i : cloud.client_ids()) {
    ASSERT_EQ(restored.cluster_of(i), ckpt.cluster_of[i.index()]);
    const auto& want = ckpt.placements[i.index()];
    const auto& got = restored.placements(i);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t n = 0; n < want.size(); ++n) {
      EXPECT_EQ(got[n].server, want[n].server);
      EXPECT_EQ(got[n].psi, want[n].psi);
      EXPECT_EQ(got[n].phi_p, want[n].phi_p);
      EXPECT_EQ(got[n].phi_n, want[n].phi_n);
    }
  }
  // Re-evaluating the materialized allocation may differ from the carried
  // scalar by summation-order ulps only.
  EXPECT_NEAR(model::profit(restored), profit_at_ckpt,
              1e-9 * std::max(1.0, std::fabs(profit_at_ckpt)));
}

// --- cluster savepoints ---------------------------------------------------

AllocState seeded_state(const Cloud& cloud) {
  alloc::AllocatorOptions opts;
  Rng rng(opts.seed);
  dist::ParallelEval eval;
  return AllocState(alloc::build_initial_solution(cloud, opts, rng, eval));
}

/// The cluster hosting the most clients (ties: lowest id).
ClusterId busiest_cluster(const Allocation& ledger) {
  ClusterId best = ClusterId{0};
  for (ClusterId k : ledger.cloud().cluster_ids())
    if (ledger.clients_in(k).size() > ledger.clients_in(best).size()) best = k;
  return best;
}

/// One in-cluster burst: re-places every other client of k through the
/// view, clears one client outright, rebalances k's active servers and
/// settles the profit — the operations TurnON/TurnOFF run under a
/// savepoint.
void burst(AllocState& state, ClusterId k, int phase) {
  alloc::AllocatorOptions opts;
  opts.share_growth = 1.0 + 0.25 * phase;
  const std::vector<ClientId> clients = state.ledger().clients_in(k);
  for (std::size_t n = static_cast<std::size_t>(phase) % 2; n < clients.size();
       n += 2) {
    const ClientId i = clients[n];
    state.clear(i);
    const auto plan = alloc::assign_distribute(state.view(), i, k, opts);
    if (plan) state.assign(i, k, plan->placements);
  }
  if (!clients.empty()) state.clear(clients.front());
  for (ServerId j : state.cloud().cluster(k).servers)
    if (state.ledger().active(j)) alloc::adjust_resource_shares(state, j, opts);
  state.profit();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Field-for-field comparison: placements, hosted-client order, ledger
/// aggregates and view accessors, all bitwise.
void expect_bitwise_equal(const AllocState& a, const AllocState& b) {
  const Cloud& cloud = a.cloud();
  for (ClientId i : cloud.client_ids()) {
    ASSERT_EQ(a.ledger().cluster_of(i), b.ledger().cluster_of(i)) << i;
    const auto& pa = a.ledger().placements(i);
    const auto& pb = b.ledger().placements(i);
    ASSERT_EQ(pa.size(), pb.size()) << i;
    for (std::size_t n = 0; n < pa.size(); ++n) {
      EXPECT_EQ(pa[n].server, pb[n].server);
      EXPECT_TRUE(same_bits(pa[n].psi, pb[n].psi));
      EXPECT_TRUE(same_bits(pa[n].phi_p, pb[n].phi_p));
      EXPECT_TRUE(same_bits(pa[n].phi_n, pb[n].phi_n));
    }
  }
  for (ServerId j : cloud.server_ids()) {
    EXPECT_EQ(a.ledger().clients_on(j), b.ledger().clients_on(j)) << j;
    EXPECT_TRUE(same_bits(a.ledger().used_phi_p(j), b.ledger().used_phi_p(j)));
    EXPECT_TRUE(same_bits(a.ledger().used_phi_n(j), b.ledger().used_phi_n(j)));
    EXPECT_TRUE(same_bits(a.ledger().used_disk(j), b.ledger().used_disk(j)));
    EXPECT_TRUE(same_bits(a.ledger().proc_load(j), b.ledger().proc_load(j)));
    EXPECT_TRUE(same_bits(a.view().free_phi_p(j), b.view().free_phi_p(j)));
    EXPECT_TRUE(same_bits(a.view().free_phi_n(j), b.view().free_phi_n(j)));
    EXPECT_TRUE(same_bits(a.view().free_disk(j), b.view().free_disk(j)));
    EXPECT_TRUE(same_bits(a.view().proc_load(j), b.view().proc_load(j)));
    EXPECT_EQ(a.view().hosted_clients(j), b.view().hosted_clients(j));
    EXPECT_EQ(a.view().active(j), b.view().active(j));
  }
}

TEST(AllocState, NestedSavepointsRollBackBitwise) {
  workload::ScenarioParams params = small_params();
  params.num_clients = 60;
  const auto cloud = workload::make_scenario(params, 29);
  AllocState state = seeded_state(cloud);
  AllocState twin = seeded_state(cloud);
  state.profit();
  twin.profit();
  const ClusterId k = busiest_cluster(state.ledger());
  ASSERT_GE(state.ledger().clients_in(k).size(), 4u);

  state.save(k);
  burst(state, k, 0);
  state.save(k);  // nested, rolled back
  burst(state, k, 1);
  state.rollback();
  state.save(k);  // nested, committed into the outer savepoint
  burst(state, k, 2);
  state.commit();
  burst(state, k, 3);
  state.rollback();

  EXPECT_TRUE(state.aggregates_consistent());
  expect_bitwise_equal(state, twin);
  EXPECT_TRUE(same_bits(state.profit(), twin.profit()));
  // The caches came back too: identical further work keeps the
  // incremental profit bit-identical.
  alloc::AllocatorOptions opts;
  alloc::adjust_all_shares(state, opts);
  alloc::adjust_all_shares(twin, opts);
  alloc::adjust_server_power(state, opts);
  alloc::adjust_server_power(twin, opts);
  expect_bitwise_equal(state, twin);
  EXPECT_TRUE(same_bits(state.profit(), twin.profit()));
}

TEST(AllocState, CommittedSavepointKeepsTheInPlaceResult) {
  const auto cloud = workload::make_scenario(small_params(), 31);
  AllocState state = seeded_state(cloud);
  AllocState twin = seeded_state(cloud);
  state.profit();
  twin.profit();
  const ClusterId k = busiest_cluster(state.ledger());
  state.save(k);
  burst(state, k, 0);
  state.commit();
  burst(twin, k, 0);
  expect_bitwise_equal(state, twin);
  EXPECT_TRUE(same_bits(state.profit(), twin.profit()));
}

TEST(AllocState, SavepointGuardsItsCluster) {
  workload::ScenarioParams params = small_params();
  params.num_clients = 60;
  const auto cloud = workload::make_scenario(params, 29);
  AllocState state = seeded_state(cloud);
  state.profit();
  const ClusterId k = busiest_cluster(state.ledger());
  ClientId outside = kNoClient;
  for (ClientId i : cloud.client_ids())
    if (state.ledger().is_assigned(i) && state.ledger().cluster_of(i) != k)
      outside = i;
  ASSERT_NE(outside, kNoClient);
  const ClientId inside = state.ledger().clients_in(k).front();

  state.save(k);
  EXPECT_DEATH(state.clear(outside), "savepoint");
  EXPECT_DEATH(state.assign(outside, state.ledger().cluster_of(outside),
                            state.ledger().placements(outside)),
               "savepoint");
  // A saved client may not leave the cluster either.
  EXPECT_DEATH(state.assign(inside, state.ledger().cluster_of(outside),
                            state.ledger().placements(outside)),
               "savepoint");
  state.clear(inside);  // in-cluster mutations are fine
  state.rollback();
  EXPECT_TRUE(state.ledger().is_assigned(inside));
}

TEST(AllocState, CorruptedAggregateTripsTheChecker) {
  const auto cloud = workload::make_scenario(small_params(), 13);
  alloc::AllocatorOptions opts;
  Rng rng(opts.seed);
  dist::ParallelEval eval;
  AllocState state(alloc::build_initial_solution(cloud, opts, rng, eval));
  ASSERT_TRUE(state.aggregates_consistent());

  state.corrupt_aggregate_for_test(ServerId{0}, 1e-3);
  EXPECT_FALSE(state.aggregates_consistent());
  EXPECT_DEATH(state.check_invariants(), "");
}

TEST(AllocState, UnrestoredSpeculationTripsTheChecker) {
  // The view is the ledger's own store, so a speculative remove_client
  // left unrestored corrupts the aggregates; the checker must see it.
  const auto cloud = workload::make_scenario(small_params(), 13);
  AllocState state = seeded_state(cloud);
  ASSERT_TRUE(state.aggregates_consistent());
  ClientId placed = kNoClient;
  for (ClientId i : cloud.client_ids())
    if (placed == kNoClient && state.ledger().is_assigned(i)) placed = i;
  ASSERT_NE(placed, kNoClient);

  ResidualView::Undo undo;
  state.view().remove_client(placed, state.ledger().placements(placed),
                             &undo);
  EXPECT_FALSE(state.aggregates_consistent());
  state.view().restore(undo);
  EXPECT_TRUE(state.aggregates_consistent());
}

TEST(AllocState, AllocatorBitIdenticalAcrossThreadCounts) {
  workload::ScenarioParams params;
  params.num_clients = 40;
  params.servers_per_cluster = 10;
  for (std::uint64_t seed : {5, 19}) {
    const auto cloud = workload::make_scenario(params, seed);
    double profit_1t = 0.0;
    for (int threads : {1, 4, 8}) {
      alloc::AllocatorOptions opts;
      opts.num_threads = threads;
      const auto result = alloc::ResourceAllocator(opts).run(cloud);
      if (threads == 1)
        profit_1t = result.report.final_profit;
      else
        EXPECT_EQ(result.report.final_profit, profit_1t)
            << "seed=" << seed << " threads=" << threads;
    }
  }
}

// The 1k-client profit witness (tab_alloc_scale's configuration), pinned
// at one and two threads.
TEST(AllocState, ScaledWitnessIsBitIdentical) {
  const auto cloud = workload::make_scenario(workload::scaled_params(1000), 11);
  for (int threads : {1, 2}) {
    alloc::AllocatorOptions opts;
    opts.num_initial_solutions = 1;
    opts.max_local_search_rounds = 1;
    opts.num_shards = 8;
    opts.cluster_fanout = 4;
    opts.num_threads = threads;
    const auto result = alloc::ResourceAllocator(opts).run(cloud);
    EXPECT_TRUE(same_bits(result.report.final_profit, 2678.4588166295971))
        << "threads=" << threads << " profit="
        << std::setprecision(17) << result.report.final_profit;
  }
}

}  // namespace
}  // namespace cloudalloc::model
