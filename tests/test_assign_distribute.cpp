#include "alloc/assign_distribute.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/allocator.h"
#include "alloc/share_policy.h"
#include "common/mathutil.h"
#include "common/rng.h"
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
  const auto plan = assign_distribute(alloc.residual(), model::ClientId{0}, model::ClusterId{0}, opts_);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->cluster, model::ClusterId{0});
  alloc.assign(model::ClientId{0}, plan->cluster, plan->placements);
  EXPECT_TRUE(model::is_feasible(alloc));
  EXPECT_TRUE(std::isfinite(alloc.response_time(model::ClientId{0})));
}

TEST_F(AssignDistributeTest, PsiQuantizedOnGrid) {
  Allocation alloc(cloud_);
  opts_.psi_grid = 4;
  const auto plan = assign_distribute(alloc.residual(), model::ClientId{0}, model::ClusterId{0}, opts_);
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
  const auto plan0 = assign_distribute(alloc.residual(), model::ClientId{0}, model::ClusterId{0}, opts_);
  const auto plan1 = assign_distribute(alloc.residual(), model::ClientId{0}, model::ClusterId{1}, opts_);
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
  const auto plan = assign_distribute(alloc.residual(), model::ClientId{3}, model::ClusterId{0}, opts_);
  ASSERT_TRUE(plan.has_value());
  Allocation trial = alloc.clone();
  trial.assign(model::ClientId{3}, model::ClusterId{0}, plan->placements);
  EXPECT_TRUE(model::is_feasible(trial));
}

TEST_F(AssignDistributeTest, ExcludedServerNeverUsed) {
  Allocation alloc(cloud_);
  InsertionConstraints constraints;
  constraints.exclude = model::ServerId{0};
  const auto plan = assign_distribute(alloc.residual(), model::ClientId{0}, model::ClusterId{0}, opts_, constraints);
  ASSERT_TRUE(plan.has_value());
  for (const Placement& p : plan->placements)
    EXPECT_NE(p.server, model::ServerId{0});
}

TEST_F(AssignDistributeTest, ActiveOnlyConstraintHonored) {
  Allocation alloc(cloud_);
  InsertionConstraints constraints;
  constraints.allow_inactive = false;
  // Nothing is active yet -> no candidates.
  EXPECT_FALSE(assign_distribute(alloc.residual(), model::ClientId{0}, model::ClusterId{0}, opts_, constraints).has_value());
  // Activate server 1, then only server 1 is eligible.
  alloc.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{1}, 1.0, 0.3, 0.3}});
  const auto plan = assign_distribute(alloc.residual(), model::ClientId{0}, model::ClusterId{0}, opts_, constraints);
  ASSERT_TRUE(plan.has_value());
  for (const Placement& p : plan->placements)
    EXPECT_EQ(p.server, model::ServerId{1});
}

TEST_F(AssignDistributeTest, ActivationCostDiscouragesNewServers) {
  // With one server already active and roomy, the plan should prefer it
  // over paying a second P0.
  Allocation alloc(cloud_);
  alloc.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{1}, 1.0, 0.2, 0.2}});
  const auto plan = assign_distribute(alloc.residual(), model::ClientId{0}, model::ClusterId{0}, opts_);
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
  const auto plan = assign_distribute(heavy_alloc.residual(), model::ClientId{0}, model::ClusterId{0}, opts_);
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
  EXPECT_FALSE(assign_distribute(alloc.residual(), model::ClientId{0}, model::ClusterId{0}, opts_).has_value());
}

TEST_F(AssignDistributeTest, BestInsertionPicksArgmaxCluster) {
  Allocation alloc(cloud_);
  // Saturate cluster 0 completely.
  alloc.assign(model::ClientId{1}, model::ClusterId{0}, {Placement{model::ServerId{0}, 1.0, 0.95, 0.95}});
  alloc.assign(model::ClientId{2}, model::ClusterId{0}, {Placement{model::ServerId{1}, 1.0, 0.95, 0.95}});
  const auto best = best_insertion(alloc.residual(), model::ClientId{0}, opts_);
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
    const auto plan = best_insertion(alloc.residual(), i, opts);
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
/// repeats an earlier row of the same probe (the memo copies them). Also
/// the servers its eq.-8 filter rejected on disk.
struct ShortcutCounts {
  long infeasible_rows = 0;
  long repeated_keys = 0;
  long disk_rejects = 0;
  long cross_cluster_keys = 0;  ///< keys first met on an earlier cluster
  long max_window_keys = 0;     ///< distinct keys of the largest window
};

using RowKey = std::array<std::uint64_t, 3>;

/// Assign_Distribute with no shortcut: the eq.-8 candidate filter only,
/// every row scored from scratch, the DP over every row, then the plan.
/// With `window`, the keys of the client's earlier probes, it also counts
/// the keys a probe shares with them but not with its own earlier rows.
template <class State>
std::optional<InsertionPlan> reference_insertion(
    const State& state, ClientId i, ClusterId k, const AllocatorOptions& opts,
    const InsertionConstraints& constraints, ShortcutCounts& counts,
    std::set<RowKey>* window = nullptr) {
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
  std::set<RowKey> keys;
  for (ServerId j : cloud.cluster(k).servers) {
    if (j == constraints.exclude) continue;
    if (!constraints.allow_inactive && !state.active(j)) continue;
    if (state.free_disk(j) + kEps < c.disk) {
      ++counts.disk_rejects;
      continue;
    }
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
                                        slack_work))
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
      const RowKey key{
          (cls << 3) | (was_active ? 4u : 0u) | (unclamped_p ? 2u : 0u) |
              (unclamped_n ? 1u : 0u),
          unclamped_p ? 0 : std::bit_cast<std::uint64_t>(free_p),
          unclamped_n ? 0 : std::bit_cast<std::uint64_t>(free_n)};
      if (!keys.insert(key).second) {
        ++counts.repeated_keys;
      } else if (window != nullptr && !window->insert(key).second) {
        ++counts.cross_cluster_keys;
      }

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
  opt::DpTable table;
  table.reset(G);
  std::vector<int> rows;
  for (const auto& cells : scores) {
    const int r = table.add_row();
    for (int g = 1; g <= G; ++g)
      table.set(r, g, cells[static_cast<std::size_t>(g)]);
    rows.push_back(r);
  }
  const auto dp = opt::dp_distribute(table, rows);
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

/// Probes client i on every cluster of `alloc` at every lane width, and
/// compares each plan with the reference bit for bit. Every third client
/// may only use active servers and every fourth excludes its cluster's
/// first server, so the constraint filters are covered too.
void check_client(const Allocation& alloc, ClientId i, ShortcutCounts& counts) {
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
      expect_same_plan(
          assign_distribute(alloc.residual(), i, k, opts, constraints), want,
          where);
    }
  }
}

/// The first `placed` clients inserted greedily; the rest unassigned.
Allocation half_loaded(const model::Cloud& cloud, int placed) {
  Allocation alloc(cloud);
  for (int i_raw = 0; i_raw < placed; ++i_raw) {
    const ClientId i{i_raw};
    const auto plan = best_insertion(alloc.residual(), i, AllocatorOptions{});
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

/// `cloud` with its servers dealt round-robin over its clusters: server j
/// joins cluster j mod K, so no cluster's ids form one contiguous range.
model::Cloud deal_round_robin(const model::Cloud& cloud) {
  std::vector<model::Server> servers = cloud.servers();
  std::vector<model::Cluster> clusters = cloud.clusters();
  for (model::Cluster& cl : clusters) cl.servers.clear();
  for (model::Server& sv : servers) {
    sv.cluster = ClusterId{sv.id.value() % cloud.num_clusters()};
    clusters[sv.cluster.index()].servers.push_back(sv.id);
  }
  return model::Cloud(cloud.server_classes(), std::move(servers),
                      std::move(clusters), cloud.utility_classes(),
                      cloud.clients());
}

// The generators always emit clusters of contiguous server ids; this
// cloud has none, so the screen reads every cluster's servers out of id
// order.
TEST(AssignDistributeReference, MatchesOnNonContiguousClusters) {
  LaneWidthRestorer restore;
  ShortcutCounts counts;
  workload::ScenarioParams params;
  params.num_clients = 60;
  params.num_clusters = 3;
  params.servers_per_cluster = 8;
  params.disk_lo = 1.0;
  params.disk_hi = 2.5;
  const model::Cloud cloud =
      deal_round_robin(workload::make_scenario(params, 37));
  const Allocation alloc = half_loaded(cloud, 40);
  for (int i_raw = 40; i_raw < cloud.num_clients(); ++i_raw)
    check_client(alloc, ClientId{i_raw}, counts);
  EXPECT_GT(counts.disk_rejects, 0);
}

// --- one context per client: best_insertion over a window ---------------

/// The clusters best_insertion probes for client i, in its order: the
/// fan-out window that AllocatorOptions::cluster_fanout documents (a fixed
/// multiplicative hash of the client id picks the start), or every
/// cluster.
std::vector<ClusterId> window_of(const model::Cloud& cloud, ClientId i,
                                 int fanout) {
  std::vector<ClusterId> out;
  const int num_clusters = cloud.num_clusters();
  if (fanout <= 0 || fanout >= num_clusters) {
    for (ClusterId k : cloud.cluster_ids()) out.push_back(k);
    return out;
  }
  const auto kk = static_cast<std::uint64_t>(num_clusters);
  const std::uint64_t start =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(i.value())) *
      2654435761ull % kk;
  for (int t = 0; t < fanout; ++t)
    out.push_back(ClusterId{
        static_cast<int>((start + static_cast<std::uint64_t>(t)) % kk)});
  return out;
}

/// Compares best_insertion(i) at every lane width, bit for bit, with two
/// test-local loops over the same window that keep the first best score:
/// one of fresh assign_distribute probes, one of shortcut-free reference
/// probes. Every third client may only use active servers, and every
/// fourth excludes the first server of its window's second cluster.
void check_window(const Allocation& alloc, ClientId i,
                  const AllocatorOptions& opts, ShortcutCounts& counts) {
  const model::Cloud& cloud = alloc.cloud();
  const std::vector<ClusterId> window =
      window_of(cloud, i, opts.cluster_fanout);
  InsertionConstraints constraints;
  constraints.allow_inactive = i.value() % 3 != 0;
  if (i.value() % 4 == 1)
    constraints.exclude = cloud.cluster(window[1 % window.size()]).servers[0];

  std::set<RowKey> window_keys;
  std::optional<InsertionPlan> want;
  for (ClusterId k : window) {
    auto plan = reference_insertion(alloc, i, k, opts, constraints, counts,
                                    &window_keys);
    if (plan && (!want || plan->score > want->score)) want = std::move(plan);
  }
  counts.max_window_keys =
      std::max(counts.max_window_keys, static_cast<long>(window_keys.size()));

  for (int w : lane_widths()) {
    simd::override_width_for_test(w);
    std::optional<InsertionPlan> fresh;
    for (ClusterId k : window) {
      auto plan = assign_distribute(alloc.residual(), i, k, opts, constraints);
      if (plan && (!fresh || plan->score > fresh->score))
        fresh = std::move(plan);
    }
    const std::string where = "client " + std::to_string(i.value()) +
                              " width " + std::to_string(w);
    const auto got = best_insertion(alloc.residual(), i, opts, constraints);
    expect_same_plan(got, fresh, where + " vs fresh probes");
    expect_same_plan(got, want, where + " vs reference");
  }
}

/// `clusters` x 12 servers, a fifth of them carrying background load (and
/// so kept on), and 15 clients per cluster.
model::Cloud window_cloud(int clusters, std::uint64_t seed) {
  workload::ScenarioParams params;
  params.num_clients = 15 * clusters;
  params.num_clusters = clusters;
  params.num_server_classes = 4;
  params.servers_per_cluster = 12;
  params.background_probability = 0.2;
  return workload::make_scenario(params, seed);
}

TEST(AssignDistributeWindow, FanOutMatchesFreshProbes) {
  LaneWidthRestorer restore;
  ShortcutCounts counts;
  AllocatorOptions opts;
  opts.cluster_fanout = 4;
  for (std::uint64_t seed : {71, 73}) {
    const model::Cloud cloud = window_cloud(10, seed);
    const int placed = cloud.num_clients() * 3 / 5;
    const Allocation alloc = half_loaded(cloud, placed);
    for (int i_raw = placed; i_raw < cloud.num_clients(); ++i_raw)
      check_window(alloc, ClientId{i_raw}, opts, counts);
  }
  EXPECT_GT(counts.cross_cluster_keys, 0);
  EXPECT_GT(counts.repeated_keys, 0);
  EXPECT_GT(counts.infeasible_rows, 0);
}

TEST(AssignDistributeWindow, FullScanMatchesFreshProbes) {
  LaneWidthRestorer restore;
  ShortcutCounts counts;
  const AllocatorOptions opts;  // cluster_fanout 0: every cluster
  const model::Cloud cloud = window_cloud(6, 79);
  const int placed = cloud.num_clients() * 3 / 5;
  const Allocation alloc = half_loaded(cloud, placed);
  for (int i_raw = placed; i_raw < cloud.num_clients(); ++i_raw)
    check_window(alloc, ClientId{i_raw}, opts, counts);
  EXPECT_GT(counts.cross_cluster_keys, 0);
  EXPECT_GT(counts.repeated_keys, 0);
}

// Every server carries its own random background load and every client
// demands more than any server has free, so almost every row is clamped
// and keyed by its server's free-share bits: a full scan meets hundreds of
// distinct keys, several times the 64 that fill the memo's first table.
TEST(AssignDistributeWindow, MemoGrowsPastItsFirstTable) {
  LaneWidthRestorer restore;
  ShortcutCounts counts;
  workload::ScenarioParams params;
  params.num_clients = 12;
  params.num_clusters = 8;
  params.num_server_classes = 3;
  params.servers_per_cluster = 40;
  params.lambda_lo = params.lambda_hi = 4.5;
  params.alpha_lo = params.alpha_hi = 1.0;
  params.background_probability = 1.0;
  params.background_share_hi = 0.5;
  const model::Cloud cloud = workload::make_scenario(params, 83);
  const Allocation alloc(cloud);
  const AllocatorOptions opts;
  for (ClientId i : cloud.client_ids()) check_window(alloc, i, opts, counts);
  EXPECT_GT(counts.max_window_keys, 256);
}

// --- the candidate screen ------------------------------------------------

/// The screen's four tests, one server at a time, through the view's
/// scalar accessors.
bool scalar_keeps(const model::ResidualView& view, ServerId j,
                  const model::ResidualView::Screen& s) {
  const model::ResidualView::Floors& floors =
      s.floors[view.cloud().server(j).server_class.index()];
  if (view.free_disk(j) + kEps < s.disk) return false;
  if (j == s.exclude) return false;
  if (!s.allow_inactive && !view.active(j)) return false;
  return floor_fits(floors.p, view.free_phi_p(j)) &&
         floor_fits(floors.n, view.free_phi_n(j));
}

/// What the screen covered: servers kept and dropped, and servers kept
/// while only their keeps-on flag made them active.
struct ScreenCounts {
  long kept = 0;
  long dropped = 0;
  long kept_on_by_flag = 0;
};

/// Runs the screen on cluster k and compares it with scalar_keeps over the
/// cluster's servers in order: the same servers, classes, activity and
/// free-share bits. Returns whether `probe` was kept.
bool expect_screen_matches(const model::ResidualView& view, ClusterId k,
                           const model::ResidualView::Screen& s,
                           ScreenCounts& counts,
                           ServerId probe = model::kNoServer) {
  std::vector<model::ResidualView::Candidate> got;
  const std::size_t n = view.screen(k, s, got);
  std::vector<ServerId> want;
  for (ServerId j : view.cloud().cluster(k).servers) {
    if (scalar_keeps(view, j, s)) {
      want.push_back(j);
      ++counts.kept;
      if (!s.allow_inactive && view.hosted_clients(j) == 0)
        ++counts.kept_on_by_flag;
    } else {
      ++counts.dropped;
    }
  }
  EXPECT_EQ(n, want.size()) << "cluster " << k.value();
  bool kept = false;
  for (std::size_t idx = 0; idx < std::min(n, want.size()); ++idx) {
    const model::ResidualView::Candidate& c = got[idx];
    const ServerId j = want[idx];
    EXPECT_EQ(c.server, j) << "cluster " << k.value() << " idx " << idx;
    EXPECT_EQ(c.server_class, view.cloud().server(j).server_class);
    EXPECT_EQ(c.active, view.active(j));
    EXPECT_EQ(bits(c.free_p), bits(view.free_phi_p(j)));
    EXPECT_EQ(bits(c.free_n), bits(view.free_phi_n(j)));
    kept |= c.server == probe;
  }
  return kept;
}

/// A cloud with background load (and so the keeps-on flag) on about a
/// third of its servers: contiguous clusters as the generator builds them,
/// or the same servers dealt round-robin.
model::Cloud screen_cloud(bool dealt) {
  workload::ScenarioParams params;
  params.num_clients = 80;
  params.num_clusters = 4;
  params.num_server_classes = 3;
  params.servers_per_cluster = 13;
  params.disk_lo = 0.5;
  params.disk_hi = 2.5;
  params.background_probability = 0.3;
  const model::Cloud cloud = workload::make_scenario(params, 89);
  return dealt ? deal_round_robin(cloud) : cloud;
}

TEST(AssignDistributeScreen, MatchesScalarFilter) {
  for (bool dealt : {false, true}) {
    const model::Cloud cloud = screen_cloud(dealt);
    const Allocation alloc = half_loaded(cloud, 15);
    const model::ResidualView& view = alloc.residual();
    Rng rng(dealt ? 97 : 101);
    ScreenCounts counts;
    std::vector<model::ResidualView::Floors> floors(
        cloud.server_classes().size());
    for (int trial = 0; trial < 200; ++trial) {
      for (auto& f : floors) {
        f.p = rng.uniform() * 0.8;
        f.n = rng.uniform() * 0.8;
      }
      model::ResidualView::Screen s;
      s.disk = rng.uniform() * 3.0;
      s.allow_inactive = trial % 2 == 0;
      if (trial % 3 == 0)
        s.exclude = ServerId{static_cast<int>(
            rng() % static_cast<std::uint64_t>(cloud.num_servers()))};
      s.floors = floors.data();
      for (ClusterId k : cloud.cluster_ids())
        expect_screen_matches(view, k, s, counts);
    }
    EXPECT_GT(counts.kept, 0) << "dealt " << dealt;
    EXPECT_GT(counts.dropped, 0) << "dealt " << dealt;
    EXPECT_GT(counts.kept_on_by_flag, 0) << "dealt " << dealt;
  }
}

// Each bound of the screen — the client's disk need against the free disk
// plus kEps, and each class floor against a free share plus kEps — is set
// exactly at a server's reading and one ulp either side of it.
TEST(AssignDistributeScreen, DecidesBoundsToTheUlp) {
  for (bool dealt : {false, true}) {
    const model::Cloud cloud = screen_cloud(dealt);
    const Allocation alloc = half_loaded(cloud, 50);
    const model::ResidualView& view = alloc.residual();
    ScreenCounts counts;
    std::vector<model::ResidualView::Floors> floors(
        cloud.server_classes().size());
    const double down = -std::numeric_limits<double>::infinity();
    const double up = std::numeric_limits<double>::infinity();
    for (ClusterId k : cloud.cluster_ids()) {
      for (ServerId j : cloud.cluster(k).servers) {
        const std::size_t cls = cloud.server(j).server_class.index();
        const auto keeps = [&](double disk, double floor_p, double floor_n) {
          std::fill(floors.begin(), floors.end(),
                    model::ResidualView::Floors{});
          floors[cls] = {floor_p, floor_n};
          model::ResidualView::Screen s;
          s.disk = disk;
          s.floors = floors.data();
          return expect_screen_matches(view, k, s, counts, j);
        };
        const double disk = view.free_disk(j) + kEps;
        EXPECT_TRUE(keeps(std::nextafter(disk, down), 0.0, 0.0));
        EXPECT_TRUE(keeps(disk, 0.0, 0.0));
        EXPECT_FALSE(keeps(std::nextafter(disk, up), 0.0, 0.0));
        const double floor_p = view.free_phi_p(j) + kEps;
        EXPECT_TRUE(keeps(0.0, std::nextafter(floor_p, down), 0.0));
        EXPECT_TRUE(keeps(0.0, floor_p, 0.0));
        EXPECT_FALSE(keeps(0.0, std::nextafter(floor_p, up), 0.0));
        const double floor_n = view.free_phi_n(j) + kEps;
        EXPECT_TRUE(keeps(0.0, 0.0, std::nextafter(floor_n, down)));
        EXPECT_TRUE(keeps(0.0, 0.0, floor_n));
        EXPECT_FALSE(keeps(0.0, 0.0, std::nextafter(floor_n, up)));
      }
    }
  }
}

}  // namespace
}  // namespace cloudalloc::alloc
