#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace cloudalloc {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

// The n < 2 guard: with fewer than two samples there is no sample
// variance, so both it and the CI half-width must be exactly 0 — never
// NaN — because replication merges feed them straight into reports.
TEST(Summary, VarianceAndCiGuardFewerThanTwoSamples) {
  Summary none;
  EXPECT_DOUBLE_EQ(none.variance(), 0.0);
  EXPECT_DOUBLE_EQ(none.ci95_halfwidth(), 0.0);
  Summary one;
  one.add(7.25);
  EXPECT_DOUBLE_EQ(one.variance(), 0.0);
  EXPECT_DOUBLE_EQ(one.ci95_halfwidth(), 0.0);
  Summary two;
  two.add(1.0);
  two.add(3.0);
  EXPECT_GT(two.ci95_halfwidth(), 0.0);
}

TEST(Summary, KnownMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations = 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, CiShrinksWithSamples) {
  Summary small, large;
  for (int i = 0; i < 10; ++i) small.add(i % 2);
  for (int i = 0; i < 1000; ++i) large.add(i % 2);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Summary, NegativeValues) {
  Summary s;
  s.add(-5.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(MeanOf, EmptyAndBasic) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
}

TEST(Quantile, MedianOfOdd) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Quantile, Extremes) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 1.0), 3.0);
}

TEST(Quantile, Interpolates) {
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
}

// quantiles() must return quantile()'s bits for every p and leave a
// permutation of its input behind.
void expect_quantiles_match(const std::vector<double>& xs,
                            const std::vector<double>& ps) {
  std::vector<double> work = xs;
  const std::vector<double> got = quantiles(work, ps);
  ASSERT_EQ(got.size(), ps.size());
  for (std::size_t k = 0; k < ps.size(); ++k)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
              std::bit_cast<std::uint64_t>(quantile(xs, ps[k])))
        << "n = " << xs.size() << ", p = " << ps[k];
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  std::sort(work.begin(), work.end());
  EXPECT_EQ(work, sorted);
}

TEST(Quantile, QuantilesMatchOnOneAndTwoSamples) {
  const std::vector<double> ps{0.0, 0.25, 0.5, 0.95, 0.99, 1.0};
  expect_quantiles_match({7.5}, ps);
  expect_quantiles_match({3.0, 1.0}, ps);
  expect_quantiles_match({2.0, 2.0}, ps);
}

TEST(Quantile, QuantilesMatchOnTiesAndRepeatedPs) {
  expect_quantiles_match({1.0, 3.0, 3.0, 3.0, 0.5, 3.0, 1.0},
                         {0.0, 0.5, 0.5, 0.99, 1.0, 1.0});
  expect_quantiles_match({4.0, 4.0, 4.0}, {0.0, 0.3, 1.0});
}

TEST(Quantile, QuantilesMatchOnRandomSamples) {
  Rng rng(17);
  for (int trial = 0; trial < 500; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    std::vector<double> xs(n);
    // A third of the draws are small integers, so ties are common.
    for (double& x : xs)
      x = rng.bernoulli(0.3) ? std::floor(rng.uniform(0.0, 4.0))
                             : rng.exponential(1.0);
    std::vector<double> ps{rng.uniform(), rng.uniform(), rng.uniform(), 0.50,
                           0.95, 0.99};
    if (rng.bernoulli(0.2)) ps.push_back(0.0);
    if (rng.bernoulli(0.2)) ps.push_back(1.0);
    std::sort(ps.begin(), ps.end());
    expect_quantiles_match(xs, ps);
  }
}

}  // namespace
}  // namespace cloudalloc
