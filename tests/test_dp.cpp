#include "opt/dp.h"

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace cloudalloc::opt {
namespace {

/// Runs dp_distribute on `scores`, one table row per server.
std::optional<DpResult> run_dp(const std::vector<std::vector<double>>& scores,
                               int G) {
  DpTable table;
  table.reset(G);
  std::vector<int> rows;
  for (const auto& cells : scores) {
    const int r = table.add_row();
    for (int g = 1; g <= G; ++g)
      table.set(r, g, cells[static_cast<std::size_t>(g)]);
    rows.push_back(r);
  }
  return dp_distribute(table, rows);
}

// Exhaustive reference for small (J, G).
double brute_best(const std::vector<std::vector<double>>& scores, int G) {
  const std::size_t J = scores.size();
  std::vector<int> g(J, 0);
  double best = kDpInfeasible;
  for (;;) {
    int total = 0;
    for (int v : g) total += v;
    if (total == G) {
      double s = 0.0;
      bool ok = true;
      for (std::size_t j = 0; j < J; ++j) {
        if (scores[j][static_cast<std::size_t>(g[j])] <= kDpInfeasible) {
          ok = false;
          break;
        }
        s += scores[j][static_cast<std::size_t>(g[j])];
      }
      if (ok && s > best) best = s;
    }
    std::size_t pos = 0;
    while (pos < J) {
      if (++g[pos] <= G) break;
      g[pos] = 0;
      ++pos;
    }
    if (pos == J) break;
  }
  return best;
}

TEST(Dp, SingleServerTakesAll) {
  const std::vector<std::vector<double>> scores{{0.0, 1.0, 3.0, 4.0}};
  const auto result = run_dp(scores, 3);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->quanta, std::vector<int>({3}));
  EXPECT_DOUBLE_EQ(result->score, 4.0);
}

TEST(Dp, PrefersConcentrationWhenSuperadditive) {
  // Concave per-server? No: strictly better to give one server everything.
  const std::vector<std::vector<double>> scores{{0.0, 1.0, 5.0},
                                                {0.0, 1.0, 5.0}};
  const auto result = run_dp(scores, 2);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->score, 5.0);
}

TEST(Dp, SplitsWhenSubadditive) {
  const std::vector<std::vector<double>> scores{{0.0, 3.0, 4.0},
                                                {0.0, 3.0, 4.0}};
  const auto result = run_dp(scores, 2);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->quanta, std::vector<int>({1, 1}));
  EXPECT_DOUBLE_EQ(result->score, 6.0);
}

TEST(Dp, HonorsInfeasibleMarks) {
  // Server 0 cannot take 2 quanta; the only way to place G=2 is 1+1.
  const std::vector<std::vector<double>> scores{{0.0, 1.0, kDpInfeasible},
                                                {0.0, 1.0, 10.0}};
  const auto result = run_dp(scores, 2);
  ASSERT_TRUE(result.has_value());
  // 0+2 on server 1 scores 10, 1+1 scores 2: DP must pick 10.
  EXPECT_EQ(result->quanta, std::vector<int>({0, 2}));
}

TEST(Dp, InfeasibleWhenNothingFits) {
  const std::vector<std::vector<double>> scores{
      {0.0, kDpInfeasible, kDpInfeasible}};
  EXPECT_FALSE(run_dp(scores, 2).has_value());
}

TEST(Dp, NegativeScoresStillFeasible) {
  const std::vector<std::vector<double>> scores{{0.0, -5.0, -8.0},
                                                {0.0, -4.0, -9.0}};
  const auto result = run_dp(scores, 2);
  ASSERT_TRUE(result.has_value());
  // Options: (2,0) = -8, (1,1) = -9, (0,2) = -9; best is -8.
  EXPECT_DOUBLE_EQ(result->score, -8.0);
  EXPECT_EQ(result->quanta, std::vector<int>({2, 0}));
}

TEST(Dp, QuantaAlwaysSumToG) {
  Rng rng(555);
  for (int trial = 0; trial < 30; ++trial) {
    const int J = static_cast<int>(rng.uniform_int(1, 5));
    const int G = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<std::vector<double>> scores(
        static_cast<std::size_t>(J),
        std::vector<double>(static_cast<std::size_t>(G) + 1, 0.0));
    for (auto& row : scores)
      for (std::size_t g = 1; g < row.size(); ++g)
        row[g] = rng.bernoulli(0.15) ? kDpInfeasible : rng.uniform(-3.0, 3.0);
    const auto result = run_dp(scores, G);
    const double brute = brute_best(scores, G);
    if (!result) {
      EXPECT_LE(brute, kDpInfeasible);
      continue;
    }
    int total = 0;
    for (int g : result->quanta) total += g;
    EXPECT_EQ(total, G);
    EXPECT_NEAR(result->score, brute, 1e-9);
  }
}

}  // namespace
}  // namespace cloudalloc::opt
