#include "epoch/predictor.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cloudalloc::epoch {

double sanitize_observation(double rate, double fallback) {
  if (!std::isfinite(rate)) return fallback;
  return std::max(rate, 0.0);
}

double clamp_prediction(double estimate) {
  if (!std::isfinite(estimate)) return 1e-6;
  return std::max(estimate, 1e-6);
}

EwmaPredictor::EwmaPredictor(double alpha, double prior)
    : alpha_(alpha), estimate_(prior) {
  CHECK(alpha > 0.0 && alpha <= 1.0);
  CHECK(prior > 0.0);
}

void EwmaPredictor::observe(double rate) {
  rate = sanitize_observation(rate, predict());
  if (!seeded_) {
    estimate_ = rate;
    seeded_ = true;
  } else {
    estimate_ = alpha_ * rate + (1.0 - alpha_) * estimate_;
  }
}

double EwmaPredictor::predict() const { return clamp_prediction(estimate_); }

std::unique_ptr<RatePredictor> EwmaPredictor::clone() const {
  return std::make_unique<EwmaPredictor>(*this);
}

SlidingMeanPredictor::SlidingMeanPredictor(int window, double prior)
    : window_(static_cast<std::size_t>(window)), prior_(prior) {
  CHECK(window >= 1);
  CHECK(prior > 0.0);
}

void SlidingMeanPredictor::observe(double rate) {
  history_.push_back(sanitize_observation(rate, predict()));
  if (history_.size() > window_)
    history_.erase(history_.begin());
}

double SlidingMeanPredictor::predict() const {
  if (history_.empty()) return prior_;
  double sum = 0.0;
  for (double r : history_) sum += r;
  return clamp_prediction(sum / static_cast<double>(history_.size()));
}

std::unique_ptr<RatePredictor> SlidingMeanPredictor::clone() const {
  return std::make_unique<SlidingMeanPredictor>(*this);
}

HoltPredictor::HoltPredictor(double alpha, double beta, double prior)
    : alpha_(alpha), beta_(beta), level_(prior) {
  CHECK(alpha > 0.0 && alpha <= 1.0);
  CHECK(beta > 0.0 && beta <= 1.0);
  CHECK(prior > 0.0);
}

void HoltPredictor::observe(double rate) {
  rate = sanitize_observation(rate, predict());
  if (!seeded_) {
    level_ = rate;
    trend_ = 0.0;
    seeded_ = true;
    return;
  }
  const double prev_level = level_;
  level_ = alpha_ * rate + (1.0 - alpha_) * (level_ + trend_);
  trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
}

double HoltPredictor::predict() const {
  return clamp_prediction(level_ + trend_);
}

std::unique_ptr<RatePredictor> HoltPredictor::clone() const {
  return std::make_unique<HoltPredictor>(*this);
}

PredictorBank::PredictorBank(const RatePredictor& prototype,
                             const std::vector<double>& seed_rates) {
  predictors_.reserve(seed_rates.size());
  for (double seed : seed_rates) {
    auto predictor = prototype.clone();
    predictor->observe(seed);
    predictors_.push_back(std::move(predictor));
  }
}

void PredictorBank::observe(int i, double rate) {
  CHECK(i >= 0 && i < size());
  predictors_[static_cast<std::size_t>(i)]->observe(rate);
}

void PredictorBank::observe_all(const std::vector<double>& observed) {
  CHECK(static_cast<int>(observed.size()) == size());
  for (int i = 0; i < size(); ++i)
    predictors_[static_cast<std::size_t>(i)]->observe(observed[i]);
}

double PredictorBank::predict(int i) const {
  CHECK(i >= 0 && i < size());
  return predictors_[static_cast<std::size_t>(i)]->predict();
}

}  // namespace cloudalloc::epoch
