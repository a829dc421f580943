#include <vector>

#include <gtest/gtest.h>

#include "exhaustive.h"
#include "opt/genetic.h"

namespace cloudalloc::opt {
namespace {

TEST(Genetic, SolvesOneMax) {
  Rng rng(3);
  auto fitness = [](const std::vector<int>& g) {
    double s = 0.0;
    for (int v : g) s += v;
    return s;
  };
  GeneticOptions opts;
  opts.generations = 100;
  const auto result = genetic_search(20, 2, fitness, opts, rng);
  EXPECT_GE(result.best_fitness, 19.0);
}

TEST(Genetic, SolvesTargetString) {
  Rng rng(4);
  const std::vector<int> target{2, 0, 1, 3, 2, 1, 0, 3};
  auto fitness = [&](const std::vector<int>& g) {
    double s = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i)
      if (g[i] == target[i]) s += 1.0;
    return s;
  };
  GeneticOptions opts;
  opts.generations = 150;
  const auto result = genetic_search(8, 4, fitness, opts, rng);
  EXPECT_GE(result.best_fitness, 7.0);
}

TEST(Genetic, ElitismPreservesBest) {
  Rng rng(5);
  // Fitness landscape where mutation is very destructive.
  auto fitness = [](const std::vector<int>& g) {
    for (int v : g)
      if (v != 1) return 0.0;
    return 1.0;
  };
  GeneticOptions opts;
  opts.population = 8;
  opts.generations = 30;
  opts.mutation_rate = 0.5;
  const auto r1 = genetic_search(3, 2, fitness, opts, rng);
  // Nothing to assert beyond stability: fitness is in {0, 1}.
  EXPECT_TRUE(r1.best_fitness == 0.0 || r1.best_fitness == 1.0);
}

TEST(Exhaustive, FindsKnownOptimum) {
  // Score = assignment read as base-3 number; max is all (K-1).
  std::vector<int> best;
  double best_score = 0.0;
  enumerate_assignments(
      4, 3,
      [](const std::vector<int>& a) {
        double s = 0.0;
        for (int v : a) s = s * 3 + v;
        return s;
      },
      &best, &best_score);
  EXPECT_EQ(best, std::vector<int>({2, 2, 2, 2}));
}

TEST(Exhaustive, VisitsAllAssignments) {
  int calls = 0;
  enumerate_assignments(
      3, 2,
      [&calls](const std::vector<int>&) {
        ++calls;
        return 0.0;
      },
      nullptr, nullptr);
  EXPECT_EQ(calls, 8);
}

TEST(Exhaustive, RejectsHugeSpaces) {
  EXPECT_DEATH(enumerate_assignments(
                   100, 100, [](const std::vector<int>&) { return 0.0; },
                   nullptr, nullptr),
               "too large");
}

}  // namespace
}  // namespace cloudalloc::opt
