#include "reference_solvers.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/mathutil.h"

namespace cloudalloc::opt {

std::vector<double> project_capped_box(const std::vector<double>& x,
                                       const std::vector<double>& lo,
                                       const std::vector<double>& hi,
                                       double total) {
  CHECK(x.size() == lo.size() && x.size() == hi.size());
  auto clamp_shift = [&](double tau) {
    std::vector<double> v(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      v[i] = clamp(x[i] - tau, lo[i], std::max(lo[i], hi[i]));
    return v;
  };
  auto sum_of = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double e : v) s += e;
    return s;
  };
  // If the plain box projection already satisfies the budget, done.
  std::vector<double> v = clamp_shift(0.0);
  if (sum_of(v) <= total + 1e-12) return v;
  // Otherwise shift by tau > 0 until the (tight) budget holds; the sum is
  // non-increasing and continuous in tau.
  double tau_hi = 1.0;
  while (sum_of(clamp_shift(tau_hi)) > total && tau_hi < 1e12) tau_hi *= 2.0;
  const double tau = bisect(
      [&](double t) { return sum_of(clamp_shift(t)) - total; }, 0.0, tau_hi,
      100);
  return clamp_shift(tau);
}

std::optional<ShareSolution> solve_shares_reference(
    const std::vector<ShareItem>& items, double budget, int iterations) {
  double floor_sum = 0.0;
  std::vector<double> lo(items.size()), hi(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].lo * items[i].rate_factor <= items[i].load)
      return std::nullopt;
    if (items[i].lo > items[i].hi + kEps) return std::nullopt;
    lo[i] = items[i].lo;
    hi[i] = std::max(items[i].lo, items[i].hi);
    floor_sum += lo[i];
  }
  if (floor_sum > budget + kEps) return std::nullopt;

  // Start at the floors, ascend the (concave) objective.
  std::vector<double> phi = lo;
  phi = project_capped_box(phi, lo, hi, budget);
  double objective = shares_objective(items, phi);
  double step = 0.1;
  for (int it = 0; it < iterations; ++it) {
    std::vector<double> grad(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const double slack = phi[i] * items[i].rate_factor - items[i].load;
      grad[i] = items[i].weight * items[i].rate_factor / (slack * slack);
    }
    // Backtracking: accept the largest step (<= current) that improves.
    bool moved = false;
    for (int bt = 0; bt < 30; ++bt) {
      std::vector<double> cand(items.size());
      for (std::size_t i = 0; i < items.size(); ++i)
        cand[i] = phi[i] + step * grad[i];
      cand = project_capped_box(cand, lo, hi, budget);
      const double cand_obj = shares_objective(items, cand);
      if (cand_obj > objective) {
        phi = std::move(cand);
        objective = cand_obj;
        moved = true;
        step *= 1.5;  // be greedier next round
        break;
      }
      step *= 0.5;
    }
    if (!moved && step < 1e-14) break;
  }

  ShareSolution sol;
  sol.phi = std::move(phi);
  sol.multiplier = 0.0;  // not recovered by the reference method
  sol.objective = objective;
  return sol;
}

std::optional<DispersionSolution> solve_dispersion_reference(
    const std::vector<DispersionItem>& items, double lambda,
    double delay_weight, int iterations) {
  CHECK(lambda > 0.0);
  std::vector<double> lo(items.size(), 0.0), hi(items.size());
  double cap_sum = 0.0;
  for (std::size_t j = 0; j < items.size(); ++j) {
    if (items[j].cap > 0.0 &&
        (items[j].mu_p <= items[j].cap * lambda ||
         items[j].mu_n <= items[j].cap * lambda))
      return std::nullopt;
    hi[j] = items[j].cap;
    cap_sum += items[j].cap;
  }
  if (cap_sum < 1.0 - 1e-9) return std::nullopt;

  // Equality sum(psi)=1: project with total=1 and re-normalize deficits by
  // water-filling *up*: since the feasible set is a slice of the box, we
  // use the same shift projection but in the other direction when the
  // box projection undershoots.
  auto project_to_one = [&](std::vector<double> x) {
    // Shift by -tau (adding mass) or +tau (removing) to hit exactly 1.
    auto clamp_shift = [&](double tau) {
      std::vector<double> v(x.size());
      for (std::size_t i = 0; i < x.size(); ++i)
        v[i] = clamp(x[i] - tau, lo[i], hi[i]);
      return v;
    };
    auto sum_of = [](const std::vector<double>& v) {
      double s = 0.0;
      for (double e : v) s += e;
      return s;
    };
    double t_lo = -2.0, t_hi = 2.0;
    while (sum_of(clamp_shift(t_lo)) < 1.0 && t_lo > -1e12) t_lo *= 2.0;
    while (sum_of(clamp_shift(t_hi)) > 1.0 && t_hi < 1e12) t_hi *= 2.0;
    if (sum_of(clamp_shift(t_lo)) < 1.0)
      return clamp_shift(t_lo);  // caps sum to ~1 exactly: best effort
    const double tau = bisect(
        [&](double t) { return sum_of(clamp_shift(t)) - 1.0; }, t_lo, t_hi,
        100);
    return clamp_shift(tau);
  };

  std::vector<double> psi(items.size(),
                          1.0 / static_cast<double>(items.size()));
  psi = project_to_one(std::move(psi));
  double objective = dispersion_objective(items, lambda, delay_weight, psi);
  double step = 0.05;
  for (int it = 0; it < iterations; ++it) {
    std::vector<double> grad(items.size());
    for (std::size_t j = 0; j < items.size(); ++j) {
      const double sp = items[j].mu_p - psi[j] * lambda;
      const double sn = items[j].mu_n - psi[j] * lambda;
      grad[j] = delay_weight * (items[j].mu_p / (sp * sp) +
                                items[j].mu_n / (sn * sn)) +
                items[j].lin_cost;
    }
    bool moved = false;
    for (int bt = 0; bt < 30; ++bt) {
      std::vector<double> cand(items.size());
      for (std::size_t j = 0; j < items.size(); ++j)
        cand[j] = psi[j] - step * grad[j];
      cand = project_to_one(std::move(cand));
      const double cand_obj =
          dispersion_objective(items, lambda, delay_weight, cand);
      if (cand_obj < objective) {
        psi = std::move(cand);
        objective = cand_obj;
        moved = true;
        step *= 1.5;
        break;
      }
      step *= 0.5;
    }
    if (!moved && step < 1e-14) break;
  }

  DispersionSolution sol;
  sol.psi = std::move(psi);
  sol.objective = objective;
  return sol;
}

}  // namespace cloudalloc::opt
