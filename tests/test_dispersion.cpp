#include "opt/dispersion.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/mathutil.h"
#include "common/rng.h"

namespace cloudalloc::opt {
namespace {

DispersionItem item(double mu_p, double mu_n, double lin_cost, double cap) {
  DispersionItem it;
  it.mu_p = mu_p;
  it.mu_n = mu_n;
  it.lin_cost = lin_cost;
  it.cap = cap;
  return it;
}

// Brute force over two servers: psi0 on a grid, psi1 = 1 - psi0.
double brute_force_two(const std::vector<DispersionItem>& items, double lambda,
                       double delay_weight, int grid = 4000) {
  double best = 1e300;
  for (int g = 0; g <= grid; ++g) {
    const double psi0 = static_cast<double>(g) / grid;
    const double psi1 = 1.0 - psi0;
    if (psi0 > items[0].cap + 1e-12 || psi1 > items[1].cap + 1e-12) continue;
    const double obj =
        dispersion_objective(items, lambda, delay_weight, {psi0, psi1});
    if (obj < best) best = obj;
  }
  return best;
}

TEST(Dispersion, SymmetricServersSplitEvenly) {
  const std::vector<DispersionItem> items{item(4.0, 4.0, 0.0, 1.0),
                                          item(4.0, 4.0, 0.0, 1.0)};
  const auto sol = solve_dispersion(items, 2.0, 1.0);
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR(sol->psi[0], 0.5, 1e-4);
  EXPECT_NEAR(sol->psi[1], 0.5, 1e-4);
}

TEST(Dispersion, FasterServerGetsMoreTraffic) {
  const std::vector<DispersionItem> items{item(8.0, 8.0, 0.0, 1.0),
                                          item(4.0, 4.0, 0.0, 1.0)};
  const auto sol = solve_dispersion(items, 2.0, 1.0);
  ASSERT_TRUE(sol.has_value());
  EXPECT_GT(sol->psi[0], sol->psi[1]);
  EXPECT_NEAR(sol->psi[0] + sol->psi[1], 1.0, 1e-6);
}

TEST(Dispersion, LinearCostSteersAwayFromExpensiveServer) {
  const std::vector<DispersionItem> no_cost{item(4.0, 4.0, 0.0, 1.0),
                                            item(4.0, 4.0, 0.0, 1.0)};
  const std::vector<DispersionItem> costly{item(4.0, 4.0, 2.0, 1.0),
                                           item(4.0, 4.0, 0.0, 1.0)};
  const auto base = solve_dispersion(no_cost, 2.0, 1.0);
  const auto sol = solve_dispersion(costly, 2.0, 1.0);
  ASSERT_TRUE(base && sol);
  EXPECT_LT(sol->psi[0], base->psi[0]);
}

TEST(Dispersion, ZeroDelayWeightFillsCheapestFirst) {
  const std::vector<DispersionItem> items{item(4.0, 4.0, 3.0, 1.0),
                                          item(4.0, 4.0, 1.0, 0.6)};
  const auto sol = solve_dispersion(items, 2.0, 0.0);
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR(sol->psi[1], 0.6, 1e-9);  // cheap server up to its cap
  EXPECT_NEAR(sol->psi[0], 0.4, 1e-9);
}

TEST(Dispersion, RespectsCaps) {
  const std::vector<DispersionItem> items{item(20.0, 20.0, 0.0, 0.3),
                                          item(4.0, 4.0, 0.0, 1.0)};
  const auto sol = solve_dispersion(items, 2.0, 1.0);
  ASSERT_TRUE(sol.has_value());
  EXPECT_LE(sol->psi[0], 0.3 + 1e-9);
}

TEST(Dispersion, InfeasibleWhenCapsBelowOne) {
  const std::vector<DispersionItem> items{item(4.0, 4.0, 0.0, 0.3),
                                          item(4.0, 4.0, 0.0, 0.4)};
  EXPECT_FALSE(solve_dispersion(items, 2.0, 1.0).has_value());
}

TEST(Dispersion, InfeasibleWhenCapViolatesStability) {
  // cap = 1 but mu_p = 1.5 < cap*lambda = 2.
  const std::vector<DispersionItem> items{item(1.5, 4.0, 0.0, 1.0),
                                          item(4.0, 4.0, 0.0, 1.0)};
  EXPECT_FALSE(solve_dispersion(items, 2.0, 1.0).has_value());
}

TEST(Dispersion, ObjectiveInfiniteWhenUnstable) {
  const std::vector<DispersionItem> items{item(1.0, 1.0, 0.0, 1.0)};
  EXPECT_TRUE(std::isinf(dispersion_objective(items, 2.0, 1.0, {1.0})));
}

TEST(Dispersion, MatchesBruteForceOnTwoServers) {
  Rng rng(777);
  for (int trial = 0; trial < 50; ++trial) {
    const double lambda = rng.uniform(0.5, 3.0);
    std::vector<DispersionItem> items;
    for (int j = 0; j < 2; ++j) {
      const double mu_p = rng.uniform(1.3, 3.0) * lambda;
      const double mu_n = rng.uniform(1.3, 3.0) * lambda;
      const double cap =
          std::min(1.0, 0.95 * std::min(mu_p, mu_n) / lambda);
      items.push_back(item(mu_p, mu_n, rng.uniform(0.0, 1.0), cap));
    }
    if (items[0].cap + items[1].cap < 1.0) continue;
    const double weight = rng.uniform(0.1, 3.0);
    const auto sol = solve_dispersion(items, lambda, weight);
    ASSERT_TRUE(sol.has_value()) << "trial " << trial;
    const double brute = brute_force_two(items, lambda, weight);
    EXPECT_NEAR(sol->objective, brute, 1e-3 * std::fabs(brute) + 1e-4)
        << "trial " << trial;
  }
}

// solve_dispersion before it replayed its bisections: a fresh psi_at
// bisection inside every step of the multiplier's. The replay must return
// its bits. `Branches` counts feasible solves and, at the final
// multiplier, the branches the replay must keep.
namespace nested {

struct Branches {
  int solved = 0;
  int pinned_at_nu_hi = 0;  // total(nu_hi) < 1: nu is pinned at the caps
  int psi_zero = 0;         // an item with marginal(0) >= nu
  int psi_cap = 0;          // an item with marginal(cap) <= nu
};

double marginal(const DispersionItem& it, double lambda, double delay_weight,
                double psi) {
  const double sp = it.mu_p - psi * lambda;
  const double sn = it.mu_n - psi * lambda;
  CHECK(sp > 0.0 && sn > 0.0);
  return delay_weight * (it.mu_p / (sp * sp) + it.mu_n / (sn * sn)) +
         it.lin_cost;
}

double psi_at(const DispersionItem& it, double lambda, double delay_weight,
              double nu, Branches* seen = nullptr) {
  if (it.cap <= 0.0) return 0.0;
  if (marginal(it, lambda, delay_weight, 0.0) >= nu) {
    if (seen) ++seen->psi_zero;
    return 0.0;
  }
  if (marginal(it, lambda, delay_weight, it.cap) <= nu) {
    if (seen) ++seen->psi_cap;
    return it.cap;
  }
  return bisect(
      [&](double psi) { return marginal(it, lambda, delay_weight, psi) - nu; },
      0.0, it.cap, 80);
}

std::optional<DispersionSolution> solve(
    const std::vector<DispersionItem>& items, double lambda,
    double delay_weight, Branches* seen = nullptr) {
  CHECK(lambda > 0.0);
  CHECK(delay_weight >= 0.0);
  CHECK(!items.empty());
  double cap_sum = 0.0;
  for (const auto& it : items) {
    CHECK(it.cap >= 0.0 && it.cap <= 1.0 + kEps);
    CHECK(it.lin_cost >= 0.0);
    if (it.cap > 0.0) {
      if (it.mu_p <= it.cap * lambda || it.mu_n <= it.cap * lambda)
        return std::nullopt;
    }
    cap_sum += it.cap;
  }
  if (cap_sum < 1.0 - 1e-9) return std::nullopt;

  if (seen) ++seen->solved;
  DispersionSolution sol;
  sol.psi.assign(items.size(), 0.0);
  if (delay_weight <= 0.0) {
    std::vector<std::size_t> order(items.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return items[a].lin_cost < items[b].lin_cost;
    });
    double remaining = 1.0;
    for (std::size_t j : order) {
      const double take = std::min(remaining, items[j].cap);
      sol.psi[j] = take;
      remaining -= take;
      if (remaining <= 1e-12) break;
    }
  } else {
    auto total = [&](double nu) {
      double s = 0.0;
      for (const auto& it : items) s += psi_at(it, lambda, delay_weight, nu);
      return s;
    };
    double nu_lo = 0.0;
    double nu_hi = 1.0;
    while (total(nu_hi) < 1.0 && nu_hi < 1e30) nu_hi *= 4.0;
    const bool pinned = total(nu_hi) < 1.0;
    if (pinned && seen) ++seen->pinned_at_nu_hi;
    const double nu =
        pinned ? nu_hi
               : bisect([&](double v) { return total(v) - 1.0; }, nu_lo,
                        nu_hi, 100);
    for (std::size_t j = 0; j < items.size(); ++j)
      sol.psi[j] = psi_at(items[j], lambda, delay_weight, nu, seen);
    double s = 0.0;
    for (double p : sol.psi) s += p;
    CHECK(s > 0.0);
    for (std::size_t j = 0; j < items.size(); ++j)
      sol.psi[j] = std::min(sol.psi[j] / s, items[j].cap);
  }
  sol.objective = dispersion_objective(items, lambda, delay_weight, sol.psi);
  return sol;
}

}  // namespace nested

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// True when solve_dispersion returns the nested bisection's bits: both
// infeasible, or every psi and the objective bitwise equal.
bool matches_nested(const std::vector<DispersionItem>& items, double lambda,
                    double delay_weight, nested::Branches* seen = nullptr) {
  const auto got = solve_dispersion(items, lambda, delay_weight);
  const auto want = nested::solve(items, lambda, delay_weight, seen);
  if (got.has_value() != want.has_value()) return false;
  if (!got) return true;
  if (got->psi.size() != want->psi.size()) return false;
  for (std::size_t j = 0; j < got->psi.size(); ++j)
    if (!same_bits(got->psi[j], want->psi[j])) return false;
  return same_bits(got->objective, want->objective);
}

// Service rates around lambda, 20% zero linear costs, 5% zero caps and
// caps below the stability limit by a random headroom.
DispersionItem random_item(Rng& rng, double lambda) {
  DispersionItem it;
  it.mu_p = lambda * std::exp(rng.uniform(-1.0, 2.0));
  it.mu_n = lambda * std::exp(rng.uniform(-1.0, 2.0));
  it.lin_cost = rng.bernoulli(0.2) ? 0.0 : std::exp(rng.uniform(-4.0, 2.0));
  const double headroom = std::exp(rng.uniform(-12.0, -0.7));
  it.cap = rng.bernoulli(0.05)
               ? 0.0
               : std::min(1.0, (1.0 - headroom) *
                                   std::min(it.mu_p, it.mu_n) / lambda);
  return it;
}

class DispersionReplay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DispersionReplay, MatchesNestedBisectionBitwise) {
  Rng rng(GetParam());
  nested::Branches seen;
  int mismatches = 0;
  for (int trial = 0; trial < 12500; ++trial) {
    const double lambda = std::exp(rng.uniform(-3.0, 3.0));
    const double delay_weight =
        rng.bernoulli(0.05) ? 0.0 : std::exp(rng.uniform(-3.0, 3.0));
    std::vector<DispersionItem> items;
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    for (int j = 0; j < n; ++j) items.push_back(random_item(rng, lambda));
    if (!matches_nested(items, lambda, delay_weight, &seen) &&
        ++mismatches == 1)
      ADD_FAILURE() << "first mismatch at trial " << trial;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(seen.solved, 5000);  // most instances are feasible
}

// 8 seeds x 12,500 instances: 100k random instances in ctest-sized shards.
INSTANTIATE_TEST_SUITE_P(Seeds, DispersionReplay,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(DispersionReplayBranches, CapsSummingToOnePinTheMultiplier) {
  Rng rng(41);
  nested::Branches seen;
  for (int trial = 0; trial < 2000; ++trial) {
    const double lambda = std::exp(rng.uniform(-3.0, 3.0));
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    // Caps that partition 1 - slack, where slack stays inside the
    // feasibility tolerance of 1e-9.
    std::vector<double> cuts(static_cast<std::size_t>(n));
    for (double& c : cuts) c = rng.uniform(0.1, 1.0);
    const double cut_sum = std::accumulate(cuts.begin(), cuts.end(), 0.0);
    const double slack = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 9e-10);
    std::vector<DispersionItem> items;
    for (double c : cuts) {
      DispersionItem it = random_item(rng, lambda);
      it.cap = c / cut_sum * (1.0 - slack);
      it.mu_p = std::max(it.mu_p, 1.5 * it.cap * lambda);
      it.mu_n = std::max(it.mu_n, 1.5 * it.cap * lambda);
      items.push_back(it);
    }
    EXPECT_TRUE(matches_nested(items, lambda, std::exp(rng.uniform(-3.0, 3.0)),
                               &seen))
        << "trial " << trial;
  }
  EXPECT_GT(seen.pinned_at_nu_hi, 100);
}

TEST(DispersionReplayBranches, ItemsPinnedAtZeroAndAtTheirCaps) {
  Rng rng(42);
  nested::Branches seen;
  for (int trial = 0; trial < 2000; ++trial) {
    const double lambda = std::exp(rng.uniform(-3.0, 3.0));
    std::vector<DispersionItem> items;
    // A fast uncapped item carries the client ...
    DispersionItem base;
    base.mu_p = base.mu_n = 4.0 * lambda;
    base.lin_cost = 0.0;
    base.cap = 1.0;
    items.push_back(base);
    // ... beside one too expensive to take any traffic and one so cheap
    // and so small that it fills its cap.
    DispersionItem dear = base;
    dear.lin_cost = std::exp(rng.uniform(3.0, 8.0)) / lambda;
    DispersionItem cheap = base;
    cheap.cap = rng.uniform(1e-6, 0.2);
    items.insert(items.begin() + rng.uniform_int(0, 1), dear);
    items.insert(items.begin() + rng.uniform_int(0, 2), cheap);
    for (DispersionItem& it : items) it.lin_cost += rng.uniform(0.0, 1e-3);
    EXPECT_TRUE(matches_nested(items, lambda, std::exp(rng.uniform(-3.0, 1.0)),
                               &seen))
        << "trial " << trial;
  }
  EXPECT_GT(seen.psi_zero, 1000);
  EXPECT_GT(seen.psi_cap, 1000);
}

TEST(DispersionReplayBranches, IdenticalItems) {
  Rng rng(43);
  for (int trial = 0; trial < 2000; ++trial) {
    const double lambda = std::exp(rng.uniform(-3.0, 3.0));
    const DispersionItem it = random_item(rng, lambda);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 10));
    const std::vector<DispersionItem> items(n, it);
    EXPECT_TRUE(matches_nested(items, lambda, std::exp(rng.uniform(-3.0, 3.0))))
        << "trial " << trial;
  }
}

TEST(DispersionReplayBranches, SingleItem) {
  Rng rng(44);
  for (int trial = 0; trial < 2000; ++trial) {
    const double lambda = std::exp(rng.uniform(-3.0, 3.0));
    DispersionItem it = random_item(rng, lambda);
    it.cap = rng.bernoulli(0.5) ? 1.0 : rng.uniform(1.0 - 1e-9, 1.0 + 1e-9);
    it.mu_p = std::max(it.mu_p, 1.01 * it.cap * lambda);
    it.mu_n = std::max(it.mu_n, 1.01 * it.cap * lambda);
    EXPECT_TRUE(matches_nested({it}, lambda, std::exp(rng.uniform(-3.0, 3.0))))
        << "trial " << trial;
  }
}

class DispersionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DispersionProperty, FeasibleUnitSplit) {
  Rng rng(GetParam());
  const double lambda = rng.uniform(0.5, 4.0);
  const int n = static_cast<int>(rng.uniform_int(1, 6));
  std::vector<DispersionItem> items;
  double cap_sum = 0.0;
  for (int j = 0; j < n; ++j) {
    const double mu_p = rng.uniform(1.2, 4.0) * lambda;
    const double mu_n = rng.uniform(1.2, 4.0) * lambda;
    const double cap = std::min(1.0, 0.9 * std::min(mu_p, mu_n) / lambda);
    cap_sum += cap;
    items.push_back(item(mu_p, mu_n, rng.uniform(0.0, 2.0), cap));
  }
  const auto sol = solve_dispersion(items, lambda, rng.uniform(0.0, 2.0));
  if (cap_sum < 1.0 - 1e-9) {
    EXPECT_FALSE(sol.has_value());
    return;
  }
  ASSERT_TRUE(sol.has_value());
  double sum = 0.0;
  for (std::size_t j = 0; j < items.size(); ++j) {
    EXPECT_GE(sol->psi[j], -1e-9);
    EXPECT_LE(sol->psi[j], items[j].cap + 1e-9);
    sum += sol->psi[j];
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
  EXPECT_TRUE(std::isfinite(sol->objective));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispersionProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace cloudalloc::opt
