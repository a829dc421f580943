#include "opt/dispersion.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/mathutil.h"

namespace cloudalloc::opt {
namespace {

// d/dpsi of the per-server cost: delay part + linear part.
double marginal(const DispersionItem& it, double lambda, double delay_weight,
                double psi) {
  const double sp = it.mu_p - psi * lambda;
  const double sn = it.mu_n - psi * lambda;
  CHECK(sp > 0.0 && sn > 0.0);
  return delay_weight * (it.mu_p / (sp * sp) + it.mu_n / (sn * sn)) +
         it.lin_cost;
}

constexpr int kInnerIters = 80;   // bisect's cap on each psi_j(nu)
constexpr int kOuterIters = 100;  // bisect's cap on the multiplier nu

// psi_j(nu) is the smallest psi with marginal >= nu, clamped to [0, cap]:
// 0 when marginal(0) >= nu, cap when marginal(cap) <= nu, and otherwise
// bisect(marginal - nu, 0, cap, kInnerIters). The multiplier solves
// total(nu) = sum_j psi_j(nu) = 1 by bisect(total - 1, 0, nu_hi,
// kOuterIters). Replay returns the bits of exactly those two bisections
// while evaluating marginal far less often (DESIGN.md section 8):
//
// * marginal is pure, and the depth-d midpoint of an inner bisection
//   depends only on the decisions above it. Each item keeps its last walk
//   and a walk for a new nu reuses every stored step on which the
//   decisions agree.
// * bisect reads f only through `== 0.0` and `< 0.0`, so the outer search
//   needs only sign(total(nu) - 1). Every open walk's bracket contains the
//   psi_j it will return, and IEEE addition is monotone, so the sums of
//   the lower and upper bracket ends, taken in total()'s order, bound
//   total(nu). The widest open walk is refined until the bounds decide.

// One evaluated depth of an inner bisection.
struct Step {
  double lo = 0.0;   // bracket at this depth
  double hi = 0.0;
  double mid = 0.0;  // 0.5 * (lo + hi)
  double m = 0.0;    // marginal(mid)
  int dir = 0;       // half the last walk kept: +1 [mid, hi], -1 [lo, mid]
};

// One item's inner bisection at the current nu. path[0, len) is the last
// walk: path[d + 1] is the child of path[d] on side path[d].dir. An open
// walk stands at depth len with bracket [lo, hi]; a closed one has
// lo == hi == psi_j(nu).
struct Walk {
  const DispersionItem* item = nullptr;
  double m0 = 0.0;    // marginal(0) and marginal(cap), when cap > 0
  double mcap = 0.0;
  std::array<Step, kInnerIters> path;
  int len = 0;
  double lo = 0.0;
  double hi = 0.0;
  bool open = false;
};

class Replay {
 public:
  Replay(const std::vector<DispersionItem>& items, double lambda,
         double delay_weight)
      : lambda_(lambda), delay_weight_(delay_weight), walks_(scratch()) {
    walks_.resize(items.size());
    for (std::size_t j = 0; j < items.size(); ++j) {
      Walk& w = walks_[j];
      w.item = &items[j];
      w.len = 0;
      if (items[j].cap > 0.0) {
        // The entry checks keep the slice stable at cap, so neither call
        // can fail.
        w.m0 = marginal(items[j], lambda, delay_weight, 0.0);
        w.mcap = marginal(items[j], lambda, delay_weight, items[j].cap);
      }
    }
  }

  // sign(total(nu) - 1.0) as -1.0, 0.0 or +1.0.
  double total_sign(double nu) {
    nu_ = nu;
    for (Walk& w : walks_) start(w);
    for (;;) {
      double lo_sum = 0.0;
      double hi_sum = 0.0;
      Walk* widest = nullptr;
      for (Walk& w : walks_) {
        lo_sum += w.lo;
        hi_sum += w.hi;
        if (w.open && (widest == nullptr ||
                       w.hi - w.lo > widest->hi - widest->lo))
          widest = &w;
      }
      if (hi_sum < 1.0) return -1.0;
      if (lo_sum > 1.0) return 1.0;
      if (lo_sum == hi_sum) return 0.0;
      // Undecided bounds differ, so some walk is still open.
      step(*widest);
    }
  }

  // psi_j(nu), walked to the end.
  double psi(std::size_t j, double nu) {
    nu_ = nu;
    Walk& w = walks_[j];
    start(w);
    while (w.open) step(w);
    return w.lo;
  }

 private:
  static std::vector<Walk>& scratch() {
    thread_local std::vector<Walk> walks;
    return walks;
  }

  static void close(Walk& w, double psi) {
    w.lo = w.hi = psi;
    w.open = false;
  }

  // Enters the bracket [w.lo, w.hi] at `depth`, where bisect stops after
  // kInnerIters halvings or once the midpoint repeats an endpoint.
  static void enter(Walk& w, int depth) {
    const double mid = 0.5 * (w.lo + w.hi);
    w.open = depth < kInnerIters &&
             std::bit_cast<std::uint64_t>(mid) !=
                 std::bit_cast<std::uint64_t>(w.lo) &&
             std::bit_cast<std::uint64_t>(mid) !=
                 std::bit_cast<std::uint64_t>(w.hi);
    if (!w.open) close(w, mid);
  }

  // Takes nu_'s decision at path[d], the deepest step this walk follows.
  // A side that differs from the stored one drops the steps under d.
  void decide(Walk& w, int d) {
    Step& s = w.path[static_cast<std::size_t>(d)];
    const double fm = s.m - nu_;
    if (fm == 0.0) {
      close(w, s.mid);
      return;
    }
    const int dir = fm < 0.0 ? 1 : -1;
    if (dir != s.dir) {
      s.dir = dir;
      w.len = d + 1;
    }
    w.lo = dir > 0 ? s.mid : s.lo;
    w.hi = dir > 0 ? s.hi : s.mid;
    enter(w, d + 1);
  }

  // Pins psi_j(nu_) or follows the stored path as far as nu_'s decisions
  // agree with it.
  void start(Walk& w) {
    const DispersionItem& it = *w.item;
    if (it.cap <= 0.0 || w.m0 >= nu_) {
      close(w, 0.0);
      return;
    }
    if (w.mcap <= nu_) {
      close(w, it.cap);
      return;
    }
    if (w.len == 0) {
      w.lo = 0.0;
      w.hi = it.cap;
      enter(w, 0);
      return;
    }
    int d = 0;
    for (; d + 1 < w.len; ++d) {
      const Step& s = w.path[static_cast<std::size_t>(d)];
      const double fm = s.m - nu_;
      if (fm == 0.0 || (fm < 0.0) != (s.dir > 0)) break;
    }
    decide(w, d);
  }

  // Evaluates marginal at the open walk's midpoint and takes one step.
  void step(Walk& w) {
    Step& s = w.path[static_cast<std::size_t>(w.len)];
    s.lo = w.lo;
    s.hi = w.hi;
    s.mid = 0.5 * (w.lo + w.hi);
    s.m = marginal(*w.item, lambda_, delay_weight_, s.mid);
    s.dir = 0;
    ++w.len;
    decide(w, w.len - 1);
  }

  double lambda_;
  double delay_weight_;
  double nu_ = 0.0;
  std::vector<Walk>& walks_;
};

}  // namespace

std::optional<DispersionSolution> solve_dispersion(
    const std::vector<DispersionItem>& items, double lambda,
    double delay_weight) {
  CHECK(lambda > 0.0);
  CHECK(delay_weight >= 0.0);
  CHECK(!items.empty());
  double cap_sum = 0.0;
  for (const auto& it : items) {
    CHECK(it.cap >= 0.0 && it.cap <= 1.0 + kEps);
    CHECK(it.lin_cost >= 0.0);
    if (it.cap > 0.0) {
      // Stability must hold across the whole [0, cap] range.
      if (it.mu_p <= it.cap * lambda || it.mu_n <= it.cap * lambda)
        return std::nullopt;
    }
    cap_sum += it.cap;
  }
  if (cap_sum < 1.0 - 1e-9) return std::nullopt;

  DispersionSolution sol;
  sol.psi.assign(items.size(), 0.0);

  if (delay_weight <= 0.0) {
    // Pure linear objective: fill cheapest servers first.
    std::vector<std::size_t> order(items.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return items[a].lin_cost < items[b].lin_cost;
    });
    double remaining = 1.0;
    for (std::size_t j : order) {
      const double take = std::min(remaining, items[j].cap);
      sol.psi[j] = take;
      remaining -= take;
      if (remaining <= 1e-12) break;
    }
  } else {
    Replay replay(items, lambda, delay_weight);
    double nu_hi = 1.0;
    double sign_hi = replay.total_sign(nu_hi);
    while (sign_hi < 0.0 && nu_hi < 1e30) {
      nu_hi *= 4.0;
      sign_hi = replay.total_sign(nu_hi);
    }
    // When caps sum to ~1 exactly, total() may plateau just under 1 and
    // never bracket; pin at the caps and let the renormalization below
    // absorb the residual.
    const double nu =
        sign_hi < 0.0
            ? nu_hi
            : bisect([&](double v) { return replay.total_sign(v); }, 0.0,
                     nu_hi, kOuterIters);
    for (std::size_t j = 0; j < items.size(); ++j)
      sol.psi[j] = replay.psi(j, nu);
    // Normalize residual rounding so callers see an exact unit split.
    double s = 0.0;
    for (double p : sol.psi) s += p;
    CHECK(s > 0.0);
    // Only rescale within caps; the residual is at bisection tolerance.
    for (std::size_t j = 0; j < items.size(); ++j)
      sol.psi[j] = std::min(sol.psi[j] / s, items[j].cap);
  }

  sol.objective = dispersion_objective(items, lambda, delay_weight, sol.psi);
  return sol;
}

double dispersion_objective(const std::vector<DispersionItem>& items,
                            double lambda, double delay_weight,
                            const std::vector<double>& psi) {
  CHECK(items.size() == psi.size());
  double obj = 0.0;
  for (std::size_t j = 0; j < items.size(); ++j) {
    if (psi[j] <= 0.0) continue;
    const double sp = items[j].mu_p - psi[j] * lambda;
    const double sn = items[j].mu_n - psi[j] * lambda;
    if (sp <= 0.0 || sn <= 0.0)
      return std::numeric_limits<double>::infinity();
    obj += delay_weight * psi[j] * (1.0 / sp + 1.0 / sn) +
           items[j].lin_cost * psi[j];
  }
  return obj;
}

}  // namespace cloudalloc::opt
