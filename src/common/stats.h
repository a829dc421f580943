// Running summary statistics and simple confidence intervals, used by the
// benchmark harnesses and the discrete-event simulator's metric sinks.
#pragma once

#include <cstddef>
#include <vector>

namespace cloudalloc {

/// Welford-style accumulator for mean/variance/min/max. add() is inline:
/// it sits on the simulator's per-completion hot path.
class Summary {
 public:
  void add(double x) {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = x < min_ ? x : min_;
      max_ = x > max_ ? x : max_;
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return n_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  /// Half-width of an approximate 95% confidence interval on the mean.
  double ci95_halfwidth() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a vector (0 when empty).
double mean_of(const std::vector<double>& xs);

/// p-quantile (0 <= p <= 1) by linear interpolation on a sorted copy.
double quantile(std::vector<double> xs, double p);

/// quantile(xs, p) for each p of `ps` (ascending), bit for bit, by
/// selection instead of a full sort: each order statistic is found with
/// nth_element from the previous one. Reorders `xs`, which must hold no
/// NaN.
std::vector<double> quantiles(std::vector<double>& xs,
                              const std::vector<double>& ps);

}  // namespace cloudalloc
