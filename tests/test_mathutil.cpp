#include "common/mathutil.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace cloudalloc {
namespace {

TEST(Clamp, Basics) {
  EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(2.0, 0.0, 1.0), 1.0);
}

TEST(Clamp, ToleratesInvertedBoundsFromRounding) {
  // lo slightly above hi: collapse to hi rather than crash.
  EXPECT_DOUBLE_EQ(clamp(0.5, 1.0 + 1e-12, 1.0), 1.0);
}

TEST(Near, AbsoluteAndRelative) {
  EXPECT_TRUE(near(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(near(1.0, 1.1));
  EXPECT_TRUE(near(1e9, 1e9 + 1.0, 1e-8));
}

TEST(RelGain, Basics) {
  EXPECT_NEAR(rel_gain(100.0, 110.0), 0.1, 1e-12);
  EXPECT_NEAR(rel_gain(100.0, 90.0), -0.1, 1e-12);
}

TEST(RelGain, GuardsZeroBase) {
  EXPECT_TRUE(std::isfinite(rel_gain(0.0, 5.0)));
}

TEST(Bisect, FindsRootOfLinear) {
  const double root =
      bisect([](double x) { return 2.0 * x - 1.0; }, 0.0, 1.0);
  EXPECT_NEAR(root, 0.5, 1e-10);
}

TEST(Bisect, FindsRootOfDecreasingFunction) {
  const double root = bisect([](double x) { return 1.0 - x * x; }, 0.0, 5.0);
  EXPECT_NEAR(root, 1.0, 1e-10);
}

TEST(Bisect, EndpointRoot) {
  EXPECT_DOUBLE_EQ(bisect([](double x) { return x; }, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(bisect([](double x) { return x - 1.0; }, 0.0, 1.0), 1.0);
}

TEST(Bisect, TranscendentalRoot) {
  const double root =
      bisect([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
  EXPECT_NEAR(root, 0.7390851332, 1e-8);
}

/// bisect as it ran before it stopped at a collapsed bracket: always
/// `iters` halvings.
template <class F>
double full_length_bisect(const F& f, double lo, double hi, int iters) {
  double flo = f(lo);
  if (flo == 0.0) return lo;
  const double fhi = f(hi);
  if (fhi == 0.0) return hi;
  for (int it = 0; it < iters; ++it) {
    const double mid = 0.5 * (lo + hi);
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

TEST(Bisect, StopsAtACollapsedBracketWithTheFullLoopsResult) {
  Rng rng(97);
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  long evals = 0, full_evals = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    // Roots across every magnitude, and at or next to 0.
    double root = 0.0;
    switch (trial % 5) {
      case 0: root = 0.0; break;
      case 1: root = (rng.bernoulli(0.5) ? -1.0 : 1.0) * kTiny; break;
      case 2:
        root = (rng.bernoulli(0.5) ? -1.0 : 1.0) *
               std::pow(10.0, rng.uniform(-320.0, -290.0));
        break;
      default:
        root = (rng.bernoulli(0.5) ? -1.0 : 1.0) *
               std::pow(10.0, rng.uniform(-12.0, 12.0));
        break;
    }
    // f(root) is exactly 0 for kinds 0-2, so bisection may land on it;
    // kinds 3 and 4 have no zero at a double, so their brackets collapse
    // onto the two doubles around the crossing, which must lie inside.
    const int kind = static_cast<int>(rng.uniform_int(0, 4));
    const bool strict = kind >= 3;
    const double reach = std::pow(10.0, rng.uniform(-12.0, 12.0));
    double lo = std::min(root, !strict && rng.bernoulli(0.2) ? root : -reach);
    double hi = std::max(root, !strict && rng.bernoulli(0.2) ? root : reach);
    if (strict && lo == root) lo = 2.0 * root;  // root <= -reach < 0
    if (strict && hi == root) hi = 2.0 * root;  // root >= reach > 0
    const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
    const double scale = std::pow(10.0, rng.uniform(-6.0, 6.0));
    const double quarter_ulp =
        0.25 * (std::nextafter(root, std::numeric_limits<double>::infinity()) -
                root);
    const auto f = [&](double x) {
      const double d = x - root;
      if (kind == 0) return sign * scale * d;
      if (kind == 1) return sign * d * std::fabs(d);
      if (kind == 2) return sign * (x < root ? -1.0 : x > root ? 1.0 : 0.0);
      if (kind == 3) return sign * (x < root ? -1.0 : 1.0);
      return sign * (d - quarter_ulp);
    };
    long n = 0, full_n = 0;
    const auto counted = [&](double x) { return ++n, f(x); };
    const auto full_counted = [&](double x) { return ++full_n, f(x); };
    const int iters = trial % 2 == 0 ? 80 : 100;
    const double got = bisect(counted, lo, hi, iters);
    const double want = full_length_bisect(full_counted, lo, hi, iters);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "trial " << trial << " root " << root << " [" << lo << ", " << hi
        << "]";
    EXPECT_LE(n, full_n) << "trial " << trial;
    evals += n;
    full_evals += full_n;
  }
  EXPECT_LT(evals, full_evals);

  // A root in [0.25, 0.5) sits on a 2^-54 grid, so a unit bracket
  // collapses after about 54 halvings instead of running all 80.
  long n = 0;
  const double root =
      bisect([&](double x) { return ++n, x - 0.3; }, 0.0, 1.0, 80);
  EXPECT_EQ(root, full_length_bisect([](double x) { return x - 0.3; }, 0.0,
                                     1.0, 80));
  EXPECT_LE(n, 2 + 55);
}

TEST(GoldenSection, MinimizesParabola) {
  const double x =
      golden_section_min([](double v) { return (v - 2.0) * (v - 2.0); }, -10.0,
                         10.0);
  EXPECT_NEAR(x, 2.0, 1e-6);
}

TEST(GoldenSection, MinimumAtBoundary) {
  const double x =
      golden_section_min([](double v) { return v; }, 1.0, 3.0);
  EXPECT_NEAR(x, 1.0, 1e-6);
}

}  // namespace
}  // namespace cloudalloc
