#include "alloc/delta_price.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/assign_distribute.h"
#include "alloc/options.h"
#include "model/allocation.h"
#include "model/evaluator.h"
#include "model/residual.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

using model::Allocation;
using model::ClientId;
using model::Cloud;
using model::ClusterId;
using model::ResidualView;
using model::ServerId;

// The delta pricer claims exactness against the full evaluator; a profit
// is O(10^2) here, so 1e-9 absolute leaves no room for anything but
// benign summation-order rounding.
constexpr double kTol = 1e-9;

/// Builds a half-loaded allocation: the first `placed` clients are
/// inserted greedily, the rest stay unassigned as probe material.
Allocation half_loaded(const Cloud& cloud, int placed,
                       const AllocatorOptions& opts) {
  Allocation alloc(cloud);
  for (int i_raw = 0; i_raw < placed; ++i_raw) {
    const ClientId i{i_raw};
    const auto plan = best_insertion(alloc.residual(), i, opts);
    if (plan) alloc.assign(i, plan->cluster, plan->placements);
  }
  return alloc;
}

/// Full server-aggregate fingerprint of a view, for bitwise-restore
/// assertions (exact equality on every field the probes read).
std::vector<double> fingerprint(const ResidualView& view) {
  const Cloud& cloud = view.cloud();
  std::vector<double> fp;
  for (ServerId j : cloud.server_ids()) {
    fp.push_back(view.free_phi_p(j));
    fp.push_back(view.free_phi_n(j));
    fp.push_back(view.free_disk(j));
    fp.push_back(view.proc_load(j));
    fp.push_back(static_cast<double>(view.hosted_clients(j)));
  }
  return fp;
}

TEST(DeltaPriceTest, InsertionDeltaMatchesCloneOracle) {
  AllocatorOptions opts;
  for (std::uint64_t seed : {1, 5, 9, 23}) {
    workload::ScenarioParams params;
    params.num_clients = 60;
    params.background_probability = (seed % 2 == 1) ? 0.3 : 0.0;
    const Cloud cloud = workload::make_scenario(params, seed);
    const Allocation alloc = half_loaded(cloud, 30, opts);
    model::profit(alloc);  // settle caches before snapshotting
    const ResidualView view = alloc.residual();

    int priced = 0;
    for (int i_raw = 30; i_raw < cloud.num_clients(); ++i_raw) {
      const ClientId i{i_raw};
      const auto plan = best_insertion(view, i, opts);
      if (!plan) continue;
      const double delta = insertion_delta(view, i, plan->placements);

      Allocation trial = alloc.clone();
      const double before = model::profit(trial);
      trial.assign(i, plan->cluster, plan->placements);
      const double after = model::profit(trial);
      EXPECT_NEAR(delta, after - before, kTol)
          << "seed=" << seed << " client=" << i;
      ++priced;
    }
    EXPECT_GT(priced, 0) << "seed=" << seed;
  }
}

TEST(DeltaPriceTest, RemovalDeltaMatchesCloneOracle) {
  AllocatorOptions opts;
  for (std::uint64_t seed : {2, 7, 13}) {
    workload::ScenarioParams params;
    params.num_clients = 60;
    params.background_probability = (seed % 2 == 1) ? 0.3 : 0.0;
    const Cloud cloud = workload::make_scenario(params, seed);
    const Allocation alloc = half_loaded(cloud, 40, opts);
    model::profit(alloc);
    const ResidualView view = alloc.residual();

    int priced = 0;
    for (int i_raw = 0; i_raw < 40; ++i_raw) {
      const ClientId i{i_raw};
      if (!alloc.is_assigned(i)) continue;
      const double delta = removal_delta(view, i, alloc.placements(i));

      Allocation trial = alloc.clone();
      const double before = model::profit(trial);
      trial.clear(i);
      const double after = model::profit(trial);
      EXPECT_NEAR(delta, after - before, kTol)
          << "seed=" << seed << " client=" << i;
      ++priced;
    }
    EXPECT_GT(priced, 0) << "seed=" << seed;
  }
}

TEST(DeltaPriceTest, ReplaceDeltaMatchesOracleAndRestoresView) {
  AllocatorOptions opts;
  workload::ScenarioParams params;
  params.num_clients = 60;
  const Cloud cloud = workload::make_scenario(params, 3);
  const Allocation alloc = half_loaded(cloud, 40, opts);
  model::profit(alloc);
  ResidualView view = alloc.residual();
  const std::vector<double> fp_before = fingerprint(view);

  InsertionConstraints constraints;
  int priced = 0;
  for (int i_raw = 0; i_raw < 40; ++i_raw) {
    const ClientId i{i_raw};
    if (!alloc.is_assigned(i)) continue;
    // Re-place into a different cluster so old and new placements differ.
    const ClusterId other{(alloc.cluster_of(i).value() + 1) %
                          cloud.num_clusters()};
    const auto old_ps = alloc.placements(i);

    // Price the insertion against the vacated state, like the passes do.
    ResidualView probe = view;
    probe.remove_client(i, old_ps);
    const auto plan = assign_distribute(probe, i, other, opts, constraints);
    if (!plan) continue;

    const double delta = replace_delta(view, i, old_ps, plan->placements);

    Allocation trial = alloc.clone();
    const double before = model::profit(trial);
    trial.clear(i);
    trial.assign(i, other, plan->placements);
    const double after = model::profit(trial);
    EXPECT_NEAR(delta, after - before, kTol) << "client=" << i;
    ++priced;
  }
  EXPECT_GT(priced, 0);

  // replace_delta speculates inside the view but must hand it back
  // bitwise-unchanged.
  const std::vector<double> fp_after = fingerprint(view);
  ASSERT_EQ(fp_before.size(), fp_after.size());
  for (std::size_t n = 0; n < fp_before.size(); ++n)
    EXPECT_EQ(fp_before[n], fp_after[n]) << "fingerprint slot " << n;
}

}  // namespace
}  // namespace cloudalloc::alloc
