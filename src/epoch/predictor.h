// Arrival-rate prediction for decision epochs.
//
// The paper allocates with *predicted* rates and bills with *agreed* rates
// (Section III) but leaves "estimation, prediction and dynamic changes"
// out of scope. This module supplies the missing piece for a usable
// system: per-client one-step-ahead predictors of the request arrival
// rate, consumed by serve::OnlineDriver.
#pragma once

#include <memory>
#include <vector>

namespace cloudalloc::epoch {

/// One-step-ahead predictor of a single client's arrival rate.
///
/// Input/output hygiene (the queueing kernels divide by predicted rates,
/// so a NaN or a zero here poisons every response time downstream):
/// observe() SANITIZES rather than trusts — a non-finite observation is
/// neutralized (replaced by the predictor's own current forecast, which
/// keeps the estimate on its own trajectory), a negative one is clamped
/// to zero (a meter can read nothing, not less than nothing) — and
/// predict() always returns a finite value floored at a small positive
/// rate, whatever was fed in.
class RatePredictor {
 public:
  virtual ~RatePredictor() = default;

  /// Feeds the rate observed over the epoch that just ended (sanitized,
  /// see above).
  virtual void observe(double rate) = 0;

  /// Predicted rate for the next epoch: always finite and > 0. Before the
  /// first observation, returns the configured prior.
  virtual double predict() const = 0;

  virtual std::unique_ptr<RatePredictor> clone() const = 0;
};

/// Clamps one observed rate per the RatePredictor contract: NaN/inf maps
/// to `fallback` (predictors pass their own current forecast, i.e.
/// "ignore the sample"), negatives clamp to zero.
double sanitize_observation(double rate, double fallback);

/// Floors a computed prediction into the finite positive domain the
/// allocator and queueing kernels require (non-finite estimates collapse
/// to the floor — they can only arise from astronomically large inputs).
double clamp_prediction(double estimate);

/// Exponentially weighted moving average: pred <- a*obs + (1-a)*pred.
class EwmaPredictor final : public RatePredictor {
 public:
  /// `alpha` in (0, 1]; `prior` used until the first observation.
  EwmaPredictor(double alpha, double prior);

  void observe(double rate) override;
  double predict() const override;
  std::unique_ptr<RatePredictor> clone() const override;

 private:
  double alpha_;
  double estimate_;
  bool seeded_ = false;
};

/// Mean of the last `window` observations (simple, robust to outliers over
/// short horizons).
class SlidingMeanPredictor final : public RatePredictor {
 public:
  SlidingMeanPredictor(int window, double prior);

  void observe(double rate) override;
  double predict() const override;
  std::unique_ptr<RatePredictor> clone() const override;

 private:
  std::size_t window_;
  double prior_;
  std::vector<double> history_;  ///< ring buffer, newest last
};

/// Double-exponential (Holt) smoothing: tracks level + trend, so ramping
/// workloads are anticipated instead of chased.
class HoltPredictor final : public RatePredictor {
 public:
  /// `alpha` smooths the level, `beta` the trend; both in (0, 1].
  HoltPredictor(double alpha, double beta, double prior);

  void observe(double rate) override;
  double predict() const override;
  std::unique_ptr<RatePredictor> clone() const override;

 private:
  double alpha_;
  double beta_;
  double level_;
  double trend_ = 0.0;
  bool seeded_ = false;
};

/// A per-client array of predictors cloned from one prototype — the
/// prediction machinery of the serving driver (serve::OnlineDriver). Each
/// clone is seeded with the matching entry of `seed_rates` (typically the
/// contract-time lambda_pred) as its first observation.
class PredictorBank {
 public:
  PredictorBank(const RatePredictor& prototype,
                const std::vector<double>& seed_rates);

  int size() const { return static_cast<int>(predictors_.size()); }

  /// Feeds client i's observed rate for the epoch that just ended.
  void observe(int i, double rate);

  /// Feeds every client's observed rate; observed.size() must equal
  /// size().
  void observe_all(const std::vector<double>& observed);

  /// One-step-ahead prediction for client i (finite, > 0).
  double predict(int i) const;

 private:
  std::vector<std::unique_ptr<RatePredictor>> predictors_;
};

}  // namespace cloudalloc::epoch
