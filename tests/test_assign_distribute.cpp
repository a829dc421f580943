#include "alloc/assign_distribute.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/allocator.h"
#include "alloc/share_policy.h"
#include "common/mathutil.h"
#include "common/simd.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "model/residual.h"
#include "opt/dp.h"
#include "queueing/batch.h"
#include "queueing/gps.h"
#include "workload/scenario.h"

namespace cloudalloc::alloc {
namespace {

using model::Allocation;
using model::Placement;

class AssignDistributeTest : public ::testing::Test {
 protected:
  AssignDistributeTest() : cloud_(workload::make_tiny_scenario(4)) {}
  model::Cloud cloud_;
  AllocatorOptions opts_;
};

TEST_F(AssignDistributeTest, ProducesFeasiblePlan) {
  Allocation alloc(cloud_);
  const auto plan = assign_distribute(alloc, model::ClientId{0}, model::ClusterId{0}, opts_);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->cluster, model::ClusterId{0});
  alloc.assign(model::ClientId{0}, plan->cluster, plan->placements);
  EXPECT_TRUE(model::is_feasible(alloc));
  EXPECT_TRUE(std::isfinite(alloc.response_time(model::ClientId{0})));
}

TEST_F(AssignDistributeTest, PsiQuantizedOnGrid) {
  Allocation alloc(cloud_);
  opts_.psi_grid = 4;
  const auto plan = assign_distribute(alloc, model::ClientId{0}, model::ClusterId{0}, opts_);
  ASSERT_TRUE(plan.has_value());
  for (const Placement& p : plan->placements) {
    const double quanta = p.psi * 4.0;
    EXPECT_NEAR(quanta, std::round(quanta), 1e-9);
  }
}

TEST_F(AssignDistributeTest, ScoreTracksRealProfitOrdering) {
  // Inserting into an empty cluster should look at least as good as
  // inserting into one whose servers are nearly saturated.
  Allocation alloc(cloud_);
  // Saturate cluster 0 shares with clients 1..3.
  alloc.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.9, 0.9}});
  alloc.assign(model::ClientId{2}, model::ClusterId{0}, {Placement{model::ServerId{1}, 1.0, 0.9, 0.9}});
  const auto plan0 = assign_distribute(alloc, model::ClientId{0}, model::ClusterId{0}, opts_);
  const auto plan1 = assign_distribute(alloc, model::ClientId{0}, model::ClusterId{1}, opts_);
  ASSERT_TRUE(plan1.has_value());
  if (plan0) {
    EXPECT_GE(plan1->score, plan0->score);
  }
}

TEST_F(AssignDistributeTest, RespectsDiskConstraint) {
  // Fill server disk so the client cannot land there.
  Allocation alloc(cloud_);
  // Tiny scenario cluster 0 = servers {0 (cap_m 4), 1 (cap_m 6)}.
  // Client 3 disk = 1.25; others 0.5, 0.75, 1.0. Shares below are sized to
  // keep every queue stable so the fixture itself is feasible.
  alloc.assign(model::ClientId{0}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.35, 0.35}});
  alloc.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.35, 0.35}});
  alloc.assign(model::ClientId{2}, model::ClusterId{0}, {Placement{model::ServerId{1}, 1.0, 0.40, 0.40}});
  const auto plan = assign_distribute(alloc, model::ClientId{3}, model::ClusterId{0}, opts_);
  ASSERT_TRUE(plan.has_value());
  Allocation trial = alloc.clone();
  trial.assign(model::ClientId{3}, model::ClusterId{0}, plan->placements);
  EXPECT_TRUE(model::is_feasible(trial));
}

TEST_F(AssignDistributeTest, ExcludedServerNeverUsed) {
  Allocation alloc(cloud_);
  InsertionConstraints constraints;
  constraints.exclude = model::ServerId{0};
  const auto plan = assign_distribute(alloc, model::ClientId{0}, model::ClusterId{0}, opts_, constraints);
  ASSERT_TRUE(plan.has_value());
  for (const Placement& p : plan->placements)
    EXPECT_NE(p.server, model::ServerId{0});
}

TEST_F(AssignDistributeTest, ActiveOnlyConstraintHonored) {
  Allocation alloc(cloud_);
  InsertionConstraints constraints;
  constraints.allow_inactive = false;
  // Nothing is active yet -> no candidates.
  EXPECT_FALSE(assign_distribute(alloc, model::ClientId{0}, model::ClusterId{0}, opts_, constraints).has_value());
  // Activate server 1, then only server 1 is eligible.
  alloc.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{1}, 1.0, 0.3, 0.3}});
  const auto plan = assign_distribute(alloc, model::ClientId{0}, model::ClusterId{0}, opts_, constraints);
  ASSERT_TRUE(plan.has_value());
  for (const Placement& p : plan->placements)
    EXPECT_EQ(p.server, model::ServerId{1});
}

TEST_F(AssignDistributeTest, ActivationCostDiscouragesNewServers) {
  // With one server already active and roomy, the plan should prefer it
  // over paying a second P0.
  Allocation alloc(cloud_);
  alloc.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{1}, 1.0, 0.2, 0.2}});
  const auto plan = assign_distribute(alloc, model::ClientId{0}, model::ClusterId{0}, opts_);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->placements.size(), 1u);
  EXPECT_EQ(plan->placements[0].server, model::ServerId{1});
}

TEST_F(AssignDistributeTest, HeavyClientSplitsAcrossServers) {
  // A demand that exceeds any single server's stable capacity must split.
  auto cloud = workload::make_tiny_scenario(1);
  // tiny client 0: lambda 1.0 — too small; instead shrink shares by
  // pre-loading the servers.
  Allocation alloc(cloud);
  (void)alloc;
  // Build a dedicated heavy scenario instead.
  workload::ScenarioParams params;
  params.num_clients = 1;
  params.num_clusters = 1;
  params.num_server_classes = 1;
  params.servers_per_cluster = 4;
  params.lambda_lo = params.lambda_hi = 8.0;
  params.alpha_lo = params.alpha_hi = 1.0;  // demand 8 > cap <= 6
  const auto heavy = workload::make_scenario(params, 3);
  Allocation heavy_alloc(heavy);
  const auto plan = assign_distribute(heavy_alloc, model::ClientId{0}, model::ClusterId{0}, opts_);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GE(plan->placements.size(), 2u);
  heavy_alloc.assign(model::ClientId{0}, model::ClusterId{0}, plan->placements);
  EXPECT_TRUE(model::is_feasible(heavy_alloc));
}

TEST_F(AssignDistributeTest, ReturnsNulloptWhenImpossible) {
  workload::ScenarioParams params;
  params.num_clients = 1;
  params.num_clusters = 1;
  params.num_server_classes = 1;
  params.servers_per_cluster = 1;
  params.lambda_lo = params.lambda_hi = 40.0;  // hopeless demand
  params.alpha_lo = params.alpha_hi = 1.0;
  const auto impossible = workload::make_scenario(params, 3);
  Allocation alloc(impossible);
  EXPECT_FALSE(assign_distribute(alloc, model::ClientId{0}, model::ClusterId{0}, opts_).has_value());
}

TEST_F(AssignDistributeTest, BestInsertionPicksArgmaxCluster) {
  Allocation alloc(cloud_);
  // Saturate cluster 0 completely.
  alloc.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.95, 0.95}});
  alloc.assign(model::ClientId{2}, model::ClusterId{0}, {Placement{model::ServerId{1}, 1.0, 0.95, 0.95}});
  const auto best = best_insertion(alloc, model::ClientId{0}, opts_);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->cluster, model::ClusterId{1});
}

class AssignDistributeProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AssignDistributeProperty, CommittedPlansStayFeasible) {
  workload::ScenarioParams params;
  params.num_clients = 20;
  params.servers_per_cluster = 6;
  const auto cloud = workload::make_scenario(params, GetParam());
  AllocatorOptions opts;
  Allocation alloc(cloud);
  for (model::ClientId i : cloud.client_ids()) {
    const auto plan = best_insertion(alloc, i, opts);
    if (!plan) continue;
    alloc.assign(i, plan->cluster, plan->placements);
    ASSERT_TRUE(model::is_feasible(alloc)) << "after client " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignDistributeProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- differential test against a scorer without shortcuts ---------------

using model::ClientId;
using model::ClusterId;
using model::ServerId;
using units::ArrivalRate;
using units::Share;
using units::Time;
using units::Work;
using units::WorkRate;

/// What the reference saw that assign_distribute skips: rows infeasible at
/// one quantum (the screen drops them) and feasible rows whose row key
/// repeats an earlier row of the same probe (the memo copies them).
struct ShortcutCounts {
  long infeasible_rows = 0;
  long repeated_keys = 0;
};

/// Assign_Distribute with no shortcut: the eq.-8 candidate filter only,
/// every row scored from scratch, the DP over every row, then the plan.
template <class State>
std::optional<InsertionPlan> reference_insertion(
    const State& state, ClientId i, ClusterId k, const AllocatorOptions& opts,
    const InsertionConstraints& constraints, ShortcutCounts& counts) {
  const model::Cloud& cloud = state.cloud();
  const model::Client& c = cloud.client(i);
  const auto& fn = cloud.utility_of(i);
  const int G = opts.psi_grid;
  const double slope = fn.slope(0.0);
  const Time zc{fn.zero_crossing()};
  const ShareSizing sizing = ShareSizing::from(cloud);
  const ArrivalRate lambda{c.lambda_pred};
  const ArrivalRate headroom{opts.stability_headroom};
  const auto width = static_cast<std::size_t>(G) + 1;

  std::vector<std::vector<double>> scores;
  std::vector<std::vector<Placement>> slices;  // [row][g]
  std::set<std::array<std::uint64_t, 3>> keys;
  for (ServerId j : cloud.cluster(k).servers) {
    if (j == constraints.exclude) continue;
    if (!constraints.allow_inactive && !state.active(j)) continue;
    if (state.free_disk(j) + kEps < c.disk) continue;
    const model::ServerClass& sc = cloud.server_class_of(j);
    const double free_p = state.free_phi_p(j);
    const double free_n = state.free_phi_n(j);
    const bool was_active = state.active(j);

    std::vector<ArrivalRate> arr(width), mu_p(width), mu_n(width);
    std::vector<Share> phi_p(width), phi_n(width);
    std::vector<Time> delay(width);
    const int gmax = std::min(
        size_share_grid(lambda, G, WorkRate{sc.cap_p}, Work{c.alpha_p}, zc,
                        sizing.slack_work_p, opts, free_p, arr.data(),
                        phi_p.data()),
        size_share_grid(lambda, G, WorkRate{sc.cap_n}, Work{c.alpha_n}, zc,
                        sizing.slack_work_n, opts, free_n, arr.data(),
                        phi_n.data()));
    std::vector<double> row(width, opt::kDpInfeasible);
    std::vector<Placement> row_slices(width);
    row[0] = 0.0;
    if (gmax == 0) {
      ++counts.infeasible_rows;
    } else {
      const auto need = [&](WorkRate cap, Work alpha, WorkRate slack_work) {
        return std::max(queueing::gps_min_share(lambda, cap, alpha, headroom),
                        preferred_share(lambda, 1.0, cap, alpha, zc,
                                        slack_work, opts))
            .value();
      };
      const bool unclamped_p =
          need(WorkRate{sc.cap_p}, Work{c.alpha_p}, sizing.slack_work_p) <=
          free_p;
      const bool unclamped_n =
          need(WorkRate{sc.cap_n}, Work{c.alpha_n}, sizing.slack_work_n) <=
          free_n;
      const auto cls =
          static_cast<std::uint64_t>(cloud.server(j).server_class.value());
      const std::array<std::uint64_t, 3> key{
          (cls << 3) | (was_active ? 4u : 0u) | (unclamped_p ? 2u : 0u) |
              (unclamped_n ? 1u : 0u),
          unclamped_p ? 0 : std::bit_cast<std::uint64_t>(free_p),
          unclamped_n ? 0 : std::bit_cast<std::uint64_t>(free_n)};
      if (!keys.insert(key).second) ++counts.repeated_keys;

      const auto n = static_cast<std::size_t>(gmax);
      queueing::gps_service_rates(phi_p.data() + 1, WorkRate{sc.cap_p},
                                  Work{c.alpha_p}, mu_p.data() + 1, n);
      queueing::gps_service_rates(phi_n.data() + 1, WorkRate{sc.cap_n},
                                  Work{c.alpha_n}, mu_n.data() + 1, n);
      queueing::two_stage_delays(arr.data() + 1, mu_p.data() + 1,
                                 mu_n.data() + 1, delay.data() + 1, n);
      for (int g = 1; g <= gmax; ++g) {
        const auto gg = static_cast<std::size_t>(g);
        const double psi = static_cast<double>(g) / static_cast<double>(G);
        double score = -c.lambda_agreed * slope * psi * delay[gg].value();
        score -= sc.cost_per_util * psi * c.lambda_pred * c.alpha_p / sc.cap_p;
        if (!was_active) score -= sc.cost_fixed;
        row[gg] = score;
        row_slices[gg] =
            Placement{j, psi, phi_p[gg].value(), phi_n[gg].value()};
      }
    }
    scores.push_back(std::move(row));
    slices.push_back(std::move(row_slices));
  }
  if (scores.empty()) return std::nullopt;
  const auto dp = opt::dp_distribute(scores, G);
  if (!dp) return std::nullopt;
  InsertionPlan plan;
  plan.cluster = k;
  plan.score = c.lambda_agreed * fn.max_value() + dp->score;
  for (std::size_t idx = 0; idx < scores.size(); ++idx) {
    const int g = dp->quanta[idx];
    if (g > 0)
      plan.placements.push_back(slices[idx][static_cast<std::size_t>(g)]);
  }
  return plan;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_plan(const std::optional<InsertionPlan>& got,
                      const std::optional<InsertionPlan>& want,
                      const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  EXPECT_EQ(got->cluster, want->cluster) << where;
  EXPECT_EQ(bits(got->score), bits(want->score)) << where;
  ASSERT_EQ(got->placements.size(), want->placements.size()) << where;
  for (std::size_t n = 0; n < got->placements.size(); ++n) {
    const Placement& a = got->placements[n];
    const Placement& b = want->placements[n];
    EXPECT_EQ(a.server, b.server) << where << " slice " << n;
    EXPECT_EQ(bits(a.psi), bits(b.psi)) << where << " slice " << n;
    EXPECT_EQ(bits(a.phi_p), bits(b.phi_p)) << where << " slice " << n;
    EXPECT_EQ(bits(a.phi_n), bits(b.phi_n)) << where << " slice " << n;
  }
}

/// Lane widths to sweep: 1, then 4 and 8 where the CPU has them.
std::vector<int> lane_widths() {
  std::vector<int> widths{1};
  if (simd::max_supported_width() >= 4) widths.push_back(4);
  if (simd::max_supported_width() >= 8) widths.push_back(8);
  return widths;
}

struct LaneWidthRestorer {
  ~LaneWidthRestorer() {
    simd::override_width_for_test(simd::max_supported_width());
  }
};

/// Probes client i on every cluster of `alloc` through both overloads at
/// every lane width, and compares each plan with the reference bit for
/// bit. Every third client may only use active servers and every fourth
/// excludes its cluster's first server, so the constraint filters are
/// covered too.
void check_client(const Allocation& alloc, ClientId i, ShortcutCounts& counts) {
  model::profit(alloc);  // settle caches before snapshotting
  const model::ResidualView view(alloc);
  const AllocatorOptions opts;
  const model::Cloud& cloud = alloc.cloud();
  for (ClusterId k : cloud.cluster_ids()) {
    InsertionConstraints constraints;
    constraints.allow_inactive = i.value() % 3 != 0;
    if (i.value() % 4 == 1) constraints.exclude = cloud.cluster(k).servers[0];
    const auto want =
        reference_insertion(alloc, i, k, opts, constraints, counts);
    for (int w : lane_widths()) {
      simd::override_width_for_test(w);
      const std::string where = "client " + std::to_string(i.value()) +
                                " cluster " + std::to_string(k.value()) +
                                " width " + std::to_string(w);
      expect_same_plan(assign_distribute(alloc, i, k, opts, constraints), want,
                       where + " Allocation");
      expect_same_plan(assign_distribute(view, i, k, opts, constraints), want,
                       where + " ResidualView");
    }
  }
}

/// The first `placed` clients inserted greedily; the rest unassigned.
Allocation half_loaded(const model::Cloud& cloud, int placed) {
  Allocation alloc(cloud);
  for (int i_raw = 0; i_raw < placed; ++i_raw) {
    const ClientId i{i_raw};
    const auto plan = best_insertion(alloc, i, AllocatorOptions{});
    if (plan) alloc.assign(i, plan->cluster, plan->placements);
  }
  return alloc;
}

TEST(AssignDistributeReference, MatchesOnHalfLoadedScenarios) {
  LaneWidthRestorer restore;
  ShortcutCounts counts;
  for (std::uint64_t seed : {17, 29}) {
    workload::ScenarioParams params;
    params.num_clients = 60;
    params.servers_per_cluster = 12;
    const model::Cloud cloud = workload::make_scenario(params, seed);
    const Allocation alloc = half_loaded(cloud, 30);
    for (int i_raw = 30; i_raw < cloud.num_clients(); ++i_raw)
      check_client(alloc, ClientId{i_raw}, counts);
  }
  EXPECT_GT(counts.infeasible_rows, 0);
  EXPECT_GT(counts.repeated_keys, 0);
}

TEST(AssignDistributeReference, MatchesOnPackedStateWithEachClientVacated) {
  LaneWidthRestorer restore;
  ShortcutCounts counts;
  workload::ScenarioParams params;
  params.num_clients = 48;
  params.num_clusters = 3;
  params.num_server_classes = 3;
  params.servers_per_cluster = 14;
  const model::Cloud cloud = workload::make_scenario(params, 5);
  const Allocation solved =
      ResourceAllocator(AllocatorOptions{}).run(cloud).allocation;
  for (ClientId i : cloud.client_ids()) {
    if (!solved.is_assigned(i)) continue;
    Allocation vacated = solved.clone();
    vacated.clear(i);
    check_client(vacated, i, counts);
  }
  EXPECT_GT(counts.infeasible_rows, 0);
  EXPECT_GT(counts.repeated_keys, 0);
}

TEST(AssignDistributeReference, MatchesOnSingleClassTwinRichClusters) {
  LaneWidthRestorer restore;
  ShortcutCounts counts;
  workload::ScenarioParams params;
  params.num_clients = 40;
  params.num_clusters = 2;
  params.num_server_classes = 1;
  params.servers_per_cluster = 14;
  for (std::uint64_t seed : {31, 47}) {
    const model::Cloud cloud = workload::make_scenario(params, seed);
    const Allocation alloc = half_loaded(cloud, 24);
    for (int i_raw = 24; i_raw < cloud.num_clients(); ++i_raw)
      check_client(alloc, ClientId{i_raw}, counts);
  }
  EXPECT_GT(counts.infeasible_rows, 0);
  EXPECT_GT(counts.repeated_keys, 0);
}

}  // namespace
}  // namespace cloudalloc::alloc
