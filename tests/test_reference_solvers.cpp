// Differential testing: the closed-form KKT solvers against slow
// projected-gradient references on random instances far larger than the
// grid-search oracles can handle.
#include "reference_solvers.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace cloudalloc::opt {
namespace {

TEST(ProjectCappedBox, IdentityInsideTheSet) {
  const auto v = project_capped_box({0.2, 0.3}, {0.0, 0.0}, {1.0, 1.0}, 1.0);
  EXPECT_DOUBLE_EQ(v[0], 0.2);
  EXPECT_DOUBLE_EQ(v[1], 0.3);
}

TEST(ProjectCappedBox, ClampsToBox) {
  const auto v =
      project_capped_box({-0.5, 2.0}, {0.1, 0.0}, {1.0, 0.8}, 2.0);
  EXPECT_DOUBLE_EQ(v[0], 0.1);
  EXPECT_DOUBLE_EQ(v[1], 0.8);
}

TEST(ProjectCappedBox, EnforcesBudgetBySharedShift) {
  const auto v = project_capped_box({0.9, 0.9}, {0.0, 0.0}, {1.0, 1.0}, 1.0);
  EXPECT_NEAR(v[0] + v[1], 1.0, 1e-9);
  EXPECT_NEAR(v[0], v[1], 1e-9);  // symmetric inputs stay symmetric
}

TEST(ProjectCappedBox, RespectsFloorsUnderPressure) {
  const auto v = project_capped_box({0.9, 0.9}, {0.6, 0.0}, {1.0, 1.0}, 1.0);
  EXPECT_GE(v[0], 0.6 - 1e-12);
  EXPECT_NEAR(v[0] + v[1], 1.0, 1e-9);
}

class SharesDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SharesDifferential, ClosedFormMatchesProjectedGradient) {
  Rng rng(GetParam());
  const int n = static_cast<int>(rng.uniform_int(2, 12));
  std::vector<ShareItem> items;
  double floor_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    ShareItem it;
    it.weight = rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.1, 4.0);
    it.rate_factor = rng.uniform(2.0, 8.0);
    it.load = rng.uniform(0.02, 1.5 / n);
    it.lo = (it.load + 0.02) / it.rate_factor;
    it.hi = rng.bernoulli(0.3) ? rng.uniform(it.lo, 1.0) : 1.0;
    floor_sum += it.lo;
    items.push_back(it);
  }
  if (floor_sum > 1.0) return;  // infeasible instance: skip

  const auto fast = solve_shares(items, 1.0);
  const auto slow = solve_shares_reference(items, 1.0);
  ASSERT_EQ(fast.has_value(), slow.has_value());
  if (!fast) return;
  // The closed form is exact; the reference must not beat it (beyond its
  // own convergence tolerance), and must come close.
  EXPECT_GE(fast->objective, slow->objective - 1e-6);
  EXPECT_NEAR(fast->objective, slow->objective,
              1e-2 * std::fabs(fast->objective) + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharesDifferential,
                         ::testing::Range<std::uint64_t>(1, 25));

class DispersionDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DispersionDifferential, ClosedFormMatchesProjectedGradient) {
  Rng rng(GetParam() * 31 + 7);
  const double lambda = rng.uniform(0.5, 3.0);
  const int n = static_cast<int>(rng.uniform_int(2, 10));
  std::vector<DispersionItem> items;
  double cap_sum = 0.0;
  for (int j = 0; j < n; ++j) {
    DispersionItem it;
    it.mu_p = rng.uniform(1.3, 4.0) * lambda;
    it.mu_n = rng.uniform(1.3, 4.0) * lambda;
    it.lin_cost = rng.uniform(0.0, 1.5);
    it.cap = std::min(1.0, 0.9 * std::min(it.mu_p, it.mu_n) / lambda);
    cap_sum += it.cap;
    items.push_back(it);
  }
  if (cap_sum < 1.0) return;

  const double weight = rng.uniform(0.05, 3.0);
  const auto fast = solve_dispersion(items, lambda, weight);
  const auto slow = solve_dispersion_reference(items, lambda, weight);
  ASSERT_EQ(fast.has_value(), slow.has_value());
  if (!fast) return;
  EXPECT_LE(fast->objective, slow->objective + 1e-6);
  EXPECT_NEAR(fast->objective, slow->objective,
              1e-2 * std::fabs(fast->objective) + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispersionDifferential,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace cloudalloc::opt
