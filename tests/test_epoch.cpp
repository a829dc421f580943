#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "epoch/predictor.h"

namespace cloudalloc::epoch {
namespace {

TEST(EwmaPredictor, ReturnsPriorBeforeObservations) {
  EwmaPredictor p(0.5, 2.0);
  EXPECT_DOUBLE_EQ(p.predict(), 2.0);
}

TEST(EwmaPredictor, FirstObservationSeeds) {
  EwmaPredictor p(0.5, 2.0);
  p.observe(6.0);
  EXPECT_DOUBLE_EQ(p.predict(), 6.0);
}

TEST(EwmaPredictor, ConvergesToConstantSignal) {
  EwmaPredictor p(0.3, 1.0);
  for (int i = 0; i < 50; ++i) p.observe(4.0);
  EXPECT_NEAR(p.predict(), 4.0, 1e-6);
}

TEST(EwmaPredictor, SmoothsNoise) {
  EwmaPredictor p(0.2, 1.0);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) p.observe(3.0 + rng.uniform(-1.0, 1.0));
  EXPECT_NEAR(p.predict(), 3.0, 0.3);
}

TEST(EwmaPredictor, CloneIsIndependent) {
  EwmaPredictor p(0.5, 1.0);
  p.observe(2.0);
  auto clone = p.clone();
  p.observe(10.0);
  EXPECT_DOUBLE_EQ(clone->predict(), 2.0);
  EXPECT_GT(p.predict(), 2.0);
}

TEST(SlidingMeanPredictor, AveragesWindow) {
  SlidingMeanPredictor p(3, 1.0);
  EXPECT_DOUBLE_EQ(p.predict(), 1.0);  // prior
  p.observe(1.0);
  p.observe(2.0);
  p.observe(3.0);
  EXPECT_DOUBLE_EQ(p.predict(), 2.0);
  p.observe(6.0);  // evicts the 1.0
  EXPECT_NEAR(p.predict(), 11.0 / 3.0, 1e-12);
}

TEST(SlidingMeanPredictor, WindowOfOneTracksLastValue) {
  SlidingMeanPredictor p(1, 1.0);
  p.observe(5.0);
  EXPECT_DOUBLE_EQ(p.predict(), 5.0);
  p.observe(2.0);
  EXPECT_DOUBLE_EQ(p.predict(), 2.0);
}

TEST(HoltPredictor, AnticipatesLinearRamp) {
  HoltPredictor holt(0.6, 0.4, 1.0);
  EwmaPredictor ewma(0.6, 1.0);
  double signal = 1.0;
  for (int i = 0; i < 40; ++i) {
    signal += 0.2;
    holt.observe(signal);
    ewma.observe(signal);
  }
  const double next = signal + 0.2;
  // Holt must beat plain EWMA on a ramp.
  EXPECT_LT(std::fabs(holt.predict() - next),
            std::fabs(ewma.predict() - next));
}

TEST(HoltPredictor, StableOnConstantSignal) {
  HoltPredictor p(0.5, 0.5, 1.0);
  for (int i = 0; i < 30; ++i) p.observe(2.5);
  EXPECT_NEAR(p.predict(), 2.5, 1e-6);
}

TEST(Predictors, SanitizeHelpersClampIntoTheLegalDomain) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(sanitize_observation(3.0, 7.0), 3.0);
  EXPECT_DOUBLE_EQ(sanitize_observation(-2.0, 7.0), 0.0);
  EXPECT_DOUBLE_EQ(sanitize_observation(nan, 7.0), 7.0);
  EXPECT_DOUBLE_EQ(sanitize_observation(inf, 7.0), 7.0);
  EXPECT_DOUBLE_EQ(sanitize_observation(-inf, 7.0), 7.0);
  EXPECT_DOUBLE_EQ(clamp_prediction(4.0), 4.0);
  EXPECT_DOUBLE_EQ(clamp_prediction(0.0), 1e-6);
  EXPECT_DOUBLE_EQ(clamp_prediction(-3.0), 1e-6);
  EXPECT_DOUBLE_EQ(clamp_prediction(nan), 1e-6);
  EXPECT_DOUBLE_EQ(clamp_prediction(inf), 1e-6);
}

TEST(Predictors, NonFiniteObservationsLeaveTheForecastOnTrack) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  EwmaPredictor ewma(0.5, 2.0);
  ewma.observe(4.0);
  const double before = ewma.predict();
  ewma.observe(nan);
  ewma.observe(inf);
  EXPECT_DOUBLE_EQ(ewma.predict(), before);

  SlidingMeanPredictor mean(3, 1.0);
  mean.observe(2.0);
  mean.observe(4.0);
  const double mean_before = mean.predict();
  mean.observe(nan);
  EXPECT_DOUBLE_EQ(mean.predict(), mean_before);

  HoltPredictor holt(0.5, 0.5, 1.0);
  holt.observe(3.0);
  holt.observe(3.5);
  holt.observe(inf);
  EXPECT_TRUE(std::isfinite(holt.predict()));
  EXPECT_GT(holt.predict(), 0.0);
}

TEST(Predictors, NegativeObservationsClampToZero) {
  // A meter can read nothing, not less than nothing: -5 is treated as 0,
  // and the prediction floor keeps the output strictly positive.
  EwmaPredictor ewma(1.0, 1.0);
  ewma.observe(-5.0);
  EXPECT_DOUBLE_EQ(ewma.predict(), 1e-6);
  SlidingMeanPredictor mean(2, 1.0);
  mean.observe(-3.0);
  mean.observe(6.0);
  EXPECT_DOUBLE_EQ(mean.predict(), 3.0);  // (0 + 6) / 2
}

TEST(PredictorBankTest, SeedsCloneAndPredictsPerClient) {
  const std::vector<double> seeds = {1.0, 2.0, 3.0};
  PredictorBank bank(EwmaPredictor(0.5, 9.0), seeds);
  ASSERT_EQ(bank.size(), 3);
  for (int i = 0; i < 3; ++i)
    EXPECT_DOUBLE_EQ(bank.predict(i), seeds[static_cast<std::size_t>(i)]);
  bank.observe(1, 4.0);  // only client 1 moves
  EXPECT_DOUBLE_EQ(bank.predict(0), 1.0);
  EXPECT_DOUBLE_EQ(bank.predict(1), 3.0);  // 0.5*4 + 0.5*2
  EXPECT_DOUBLE_EQ(bank.predict(2), 3.0);
}

TEST(Predictors, NeverPredictNonPositive) {
  EwmaPredictor e(0.9, 1.0);
  e.observe(0.0);
  EXPECT_GT(e.predict(), 0.0);
  SlidingMeanPredictor s(2, 1.0);
  s.observe(0.0);
  s.observe(0.0);
  EXPECT_GT(s.predict(), 0.0);
  HoltPredictor h(0.9, 0.9, 1.0);
  h.observe(5.0);
  h.observe(0.0);
  h.observe(0.0);
  EXPECT_GT(h.predict(), 0.0);
}

}  // namespace
}  // namespace cloudalloc::epoch
