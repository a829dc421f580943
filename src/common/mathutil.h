// Small numeric helpers shared across the optimizer and the simulator.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/check.h"

namespace cloudalloc {

inline constexpr double kEps = 1e-9;

/// A slice whose stability floor is `floor_share` fits a server with
/// `free_share` free (within kEps). The share grid's per-quantum test
/// (alloc::size_share_grid) and the candidate screen's one-quantum test
/// (model::ResidualView::screen) are both this expression.
inline bool floor_fits(double floor_share, double free_share) {
  return !(floor_share > free_share + kEps);
}

/// Clamp `x` into [lo, hi]; tolerant of lo slightly above hi from rounding.
inline double clamp(double x, double lo, double hi) {
  if (lo > hi) lo = hi;
  return std::min(std::max(x, lo), hi);
}

/// True when |a - b| is within `tol` absolutely or relatively.
inline bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Relative improvement of `now` over `before` (guards tiny denominators).
inline double rel_gain(double before, double now) {
  const double denom = std::max(std::fabs(before), 1e-12);
  return (now - before) / denom;
}

/// Finds a root of a continuous monotone function `f` on [lo, hi] by
/// bisection. Requires f(lo) and f(hi) to bracket zero (opposite signs or
/// one of them zero); returns the midpoint after `iters` halvings, or
/// after fewer once the bracket can shrink no further (same result: see
/// the loop). `f` must be pure. Templated so callers' lambdas inline — the
/// solvers evaluate f millions of times per allocator run and a
/// std::function hop dominated them.
template <class F>
double bisect(const F& f, double lo, double hi, int iters = 80) {
  CHECK(lo <= hi);
  double flo = f(lo);
  if (flo == 0.0) return lo;
  double fhi = f(hi);
  if (fhi == 0.0) return hi;
  CHECK_MSG((flo < 0.0) != (fhi < 0.0), "bisect: endpoints do not bracket");
  for (int it = 0; it < iters; ++it) {
    const double mid = 0.5 * (lo + hi);
    // A midpoint with the bits of an endpoint repeats that endpoint's f,
    // so this step and every later one would reassign the same endpoint:
    // the result is already fixed.
    if (std::bit_cast<std::uint64_t>(mid) == std::bit_cast<std::uint64_t>(lo) ||
        std::bit_cast<std::uint64_t>(mid) == std::bit_cast<std::uint64_t>(hi))
      break;
    const double fm = f(mid);
    if (fm == 0.0) return mid;
    if ((fm < 0.0) == (flo < 0.0)) {
      lo = mid;
      flo = fm;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Minimizes a strictly unimodal function on [lo, hi] by golden-section
/// search; returns the argmin.
template <class F>
double golden_section_min(const F& f, double lo, double hi, int iters = 100) {
  CHECK(lo <= hi);
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo, b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  for (int it = 0; it < iters; ++it) {
    if (f1 < f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    }
  }
  return 0.5 * (a + b);
}

}  // namespace cloudalloc
