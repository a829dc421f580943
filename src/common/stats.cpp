#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/mathutil.h"

namespace cloudalloc {

double Summary::mean() const { return n_ == 0 ? 0.0 : mean_; }

double Summary::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double quantile(std::vector<double> xs, double p) {
  CHECK(!xs.empty());
  CHECK(p >= 0.0 && p <= 1.0);
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

std::vector<double> quantiles(std::vector<double>& xs,
                              const std::vector<double>& ps) {
  CHECK(!xs.empty());
  std::vector<double> out;
  out.reserve(ps.size());
  // nth_element at lo leaves no smaller element after xs[lo], so the
  // next order statistic, which is no smaller, lies in xs[lo, end).
  std::size_t from = 0;
  double prev = 0.0;
  for (double p : ps) {
    CHECK(p >= prev && p <= 1.0);
    prev = p;
    const double pos = p * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    std::nth_element(xs.begin() + static_cast<std::ptrdiff_t>(from),
                     xs.begin() + static_cast<std::ptrdiff_t>(lo), xs.end());
    from = lo;
    const double x_hi =
        hi == lo ? xs[lo]
                 : *std::min_element(
                       xs.begin() + static_cast<std::ptrdiff_t>(hi), xs.end());
    out.push_back(xs[lo] * (1.0 - frac) + x_hi * frac);
  }
  return out;
}

}  // namespace cloudalloc
