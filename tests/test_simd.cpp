// SIMD-vs-scalar contracts of the lane-dispatched kernels (common/simd.h):
// every kernel must produce BITWISE-identical outputs at lane widths 1, 4
// and 8 (the kernels are pure elementwise IEEE chains compiled with
// -ffp-contract=off), and must match the historical scalar helpers they
// replaced operation-for-operation. Also covered: the DP kernel agrees
// with the historical push-form DP.
//
// Width sweeps use simd::override_width_for_test; on hardware without
// AVX2/AVX-512 the override clamps down and the sweep degenerates to the
// scalar path (trivially passing — the contract is about machines that DO
// have the wide paths).
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/options.h"
#include "alloc/share_policy.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "common/simd.h"
#include "opt/dp.h"
#include "queueing/batch.h"
#include "queueing/gps.h"
#include "queueing/mm1.h"

namespace cloudalloc {
namespace {

using alloc::AllocatorOptions;
using units::ArrivalRate;
using units::Share;
using units::Time;
using units::Work;
using units::WorkRate;

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Widths to sweep: always 1; 4 and 8 where the CPU supports them.
std::vector<int> sweep_widths() {
  std::vector<int> widths{1};
  if (simd::max_supported_width() >= 4) widths.push_back(4);
  if (simd::max_supported_width() >= 8) widths.push_back(8);
  return widths;
}

struct WidthRestorer {
  ~WidthRestorer() {
    simd::override_width_for_test(simd::max_supported_width());
  }
};

TEST(SimdKernels, QueueingKernelsBitwiseIdenticalAcrossWidths) {
  WidthRestorer restore;
  Rng rng(41);
  const std::size_t n = 137;  // odd: exercises the vector body AND the tail
  std::vector<Share> phi(n);
  std::vector<ArrivalRate> lambda(n), mu_ref(n);
  for (std::size_t i = 0; i < n; ++i) {
    phi[i] = Share{rng.uniform()};
    // Mix stable, critically loaded and unstable queues, plus a few
    // negative arrivals (the kernels blend them to +inf like the scalar
    // or_inf forms).
    lambda[i] = ArrivalRate{rng.uniform() * 4.0 - 0.5};
  }
  const WorkRate cap{3.7};
  const Work alpha{0.6};

  std::vector<std::vector<ArrivalRate>> mus;
  std::vector<std::vector<Time>> resp, two;
  for (int w : sweep_widths()) {
    simd::override_width_for_test(w);
    std::vector<ArrivalRate> mu(n);
    queueing::gps_service_rates(phi.data(), cap, alpha, mu.data(), n);
    std::vector<Time> r(n), t(n);
    queueing::mm1_response_times(lambda.data(), mu.data(), r.data(), n);
    queueing::two_stage_delays(lambda.data(), mu.data(), mu.data(), t.data(),
                               n);
    mus.push_back(std::move(mu));
    resp.push_back(std::move(r));
    two.push_back(std::move(t));
  }
  for (std::size_t w = 1; w < mus.size(); ++w) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(bits_equal(mus[0][i].value(), mus[w][i].value()))
          << "gps width sweep " << w << " element " << i;
      EXPECT_TRUE(bits_equal(resp[0][i].value(), resp[w][i].value()))
          << "mm1 width sweep " << w << " element " << i;
      EXPECT_TRUE(bits_equal(two[0][i].value(), two[w][i].value()))
          << "two-stage width sweep " << w << " element " << i;
    }
  }
  // Width-1 output equals the historical scalar helpers bit for bit.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(bits_equal(
        mus[0][i].value(),
        queueing::gps_service_rate(phi[i], cap, alpha).value()));
    EXPECT_TRUE(
        bits_equal(resp[0][i].value(),
                   lambda[i].value() >= 0.0
                       ? queueing::mm1_response_time_or_inf(lambda[i],
                                                            mus[0][i])
                             .value()
                       : std::numeric_limits<double>::infinity()));
  }
}

/// The historical per-g scalar chain of Assign_Distribute's share sizing
/// (gps_min_share -> preferred_share -> clamp), as it was before the
/// batched grid replaced it.
std::optional<double> ref_size_share(ArrivalRate arrivals, double psi,
                                     WorkRate cap, Work alpha, Time zc,
                                     WorkRate slack_work,
                                     const AllocatorOptions& opts,
                                     double free_share) {
  const Share floor_share = queueing::gps_min_share(
      arrivals, cap, alpha, ArrivalRate{opts.stability_headroom});
  if (floor_share.value() > free_share + kEps) return std::nullopt;
  const Share share =
      alloc::preferred_share(arrivals, psi, cap, alpha, zc, slack_work);
  return clamp(share.value(), floor_share.value(), free_share);
}

TEST(SimdKernels, ShareGridMatchesHistoricalScalarChainAtEveryWidth) {
  WidthRestorer restore;
  Rng rng(43);
  AllocatorOptions opts;
  for (int trial = 0; trial < 200; ++trial) {
    const int G = std::array<int, 4>{1, 4, 10, 23}[trial % 4];
    const ArrivalRate lambda{0.1 + rng.uniform() * 5.0};
    const WorkRate cap{2.0 + rng.uniform() * 4.0};
    const Work alpha{0.4 + rng.uniform() * 0.6};
    const WorkRate slack{0.1 + rng.uniform() * 2.0};
    const Time zc{trial % 3 == 0 ? std::numeric_limits<double>::infinity()
                                 : 0.5 + rng.uniform() * 9.5};
    const double free_share = rng.uniform();

    // Reference: the historical loop, stopping at the first infeasible g.
    std::vector<double> ref_phi(static_cast<std::size_t>(G) + 1);
    int ref_gmax = 0;
    for (int g = 1; g <= G; ++g) {
      const double psi = static_cast<double>(g) / static_cast<double>(G);
      const ArrivalRate arrivals = psi * lambda;
      const auto phi = ref_size_share(arrivals, psi, cap, alpha, zc, slack,
                                      opts, free_share);
      if (!phi) break;
      ref_phi[static_cast<std::size_t>(g)] = *phi;
      ref_gmax = g;
    }

    std::vector<ArrivalRate> arr(static_cast<std::size_t>(G) + 1);
    std::vector<Share> phi(static_cast<std::size_t>(G) + 1);
    for (int w : sweep_widths()) {
      simd::override_width_for_test(w);
      const int gmax = alloc::size_share_grid(lambda, G, cap, alpha, zc,
                                              slack, opts, free_share,
                                              arr.data(), phi.data());
      ASSERT_EQ(gmax, ref_gmax) << "trial " << trial << " width " << w;
      for (int g = 1; g <= gmax; ++g) {
        const auto gg = static_cast<std::size_t>(g);
        const double psi = static_cast<double>(g) / static_cast<double>(G);
        EXPECT_TRUE(bits_equal(arr[gg].value(), (psi * lambda).value()));
        EXPECT_TRUE(bits_equal(phi[gg].value(), ref_phi[gg]))
            << "trial " << trial << " width " << w << " g " << g;
      }
    }
  }
}

TEST(SimdKernels, OneQuantumScreenAgreesWithShareGridAtEveryWidth) {
  // Assign_Distribute screens out a server when the one-quantum stability
  // floor does not fit its free share. That must be exactly the servers
  // for which size_share_grid finds no feasible g, so step the free share
  // one ulp at a time across the floor and compare at every lane width.
  // The first two rates are ones where lambda / G and the grid's
  // (1 / G) * lambda round differently.
  ASSERT_FALSE(bits_equal(3.0 / 10.0, (1.0 / 10.0) * 3.0));
  ASSERT_FALSE(bits_equal(7.0 / 3.0, (1.0 / 3.0) * 7.0));
  WidthRestorer restore;
  Rng rng(47);
  struct Rate {
    double lambda;
    int G;
  };
  int crossed = 0;
  for (const Rate rate : {Rate{3.0, 10}, Rate{7.0, 3}, Rate{2.2, 12},
                          Rate{0.9, 7}, Rate{4.1, 1}}) {
    for (int trial = 0; trial < 8; ++trial) {
      AllocatorOptions opts;
      opts.stability_headroom = trial % 2 == 0 ? 0.05 : 0.0;
      const ArrivalRate lambda{rate.lambda};
      const WorkRate cap{2.0 + rng.uniform() * 4.0};
      const Work alpha{0.4 + rng.uniform() * 0.6};
      const WorkRate slack{0.1 + rng.uniform() * 2.0};
      const Time zc{0.5 + rng.uniform() * 9.5};
      const double floor =
          alloc::one_quantum_floor(lambda, rate.G, cap, alpha, opts);

      std::vector<ArrivalRate> arr(static_cast<std::size_t>(rate.G) + 1);
      std::vector<Share> phi(static_cast<std::size_t>(rate.G) + 1);
      double free_share = floor - kEps;
      for (int step = 0; step < 64; ++step)
        free_share = std::nextafter(free_share, -1.0);
      bool saw_fit = false, saw_no_fit = false;
      for (int step = 0; step < 128; ++step) {
        const bool fits = floor_fits(floor, free_share);
        saw_fit |= fits;
        saw_no_fit |= !fits;
        for (int w : sweep_widths()) {
          simd::override_width_for_test(w);
          const int gmax = alloc::size_share_grid(lambda, rate.G, cap, alpha,
                                                  zc, slack, opts, free_share,
                                                  arr.data(), phi.data());
          ASSERT_EQ(fits, gmax != 0)
              << "lambda " << rate.lambda << " G " << rate.G << " trial "
              << trial << " step " << step << " width " << w;
        }
        free_share = std::nextafter(free_share, 2.0);
      }
      crossed += saw_fit && saw_no_fit ? 1 : 0;
    }
  }
  // Every sweep crossed the boundary: it saw both verdicts.
  EXPECT_EQ(crossed, 5 * 8);
}

/// The historical push-form dp_distribute, as it was before the lane
/// kernel replaced it: each feasible (t, g) pushes to t + g, t ascending,
/// then g ascending from 0, with a strict > from kDpInfeasible.
std::optional<opt::DpResult> push_dp(
    const std::vector<std::vector<double>>& scores, int G) {
  constexpr double kInf = opt::kDpInfeasible;
  const std::size_t J = scores.size();
  const std::size_t width = static_cast<std::size_t>(G) + 1;
  std::vector<double> best(width, kInf), next(width);
  std::vector<int> choice(J * width, -1);
  best[0] = 0.0;
  std::size_t reach = 0;
  for (std::size_t j = 0; j < J; ++j) {
    const std::vector<double>& row = scores[j];
    int* const ch = choice.data() + j * width;
    std::size_t gmax = 0;
    for (std::size_t g = width - 1; g >= 1; --g)
      if (row[g] > kInf) {
        gmax = g;
        break;
      }
    next.assign(width, kInf);
    for (std::size_t t = 0; t <= reach; ++t) {
      const double base = best[t];
      if (base <= kInf) continue;
      if (base > next[t]) {
        next[t] = base;
        ch[t] = 0;
      }
      const std::size_t glim = std::min(gmax, width - 1 - t);
      for (std::size_t g = 1; g <= glim; ++g) {
        if (row[g] <= kInf) continue;
        const double cand = base + row[g];
        if (cand > next[t + g]) {
          next[t + g] = cand;
          ch[t + g] = static_cast<int>(g);
        }
      }
    }
    std::swap(best, next);
    reach = std::min(width - 1, reach + gmax);
  }
  if (best[static_cast<std::size_t>(G)] <= kInf) return std::nullopt;
  opt::DpResult out;
  out.score = best[static_cast<std::size_t>(G)];
  out.quanta.assign(J, 0);
  std::size_t t = static_cast<std::size_t>(G);
  for (std::size_t j = J; j-- > 0;) {
    out.quanta[j] = choice[j * width + t];
    t -= static_cast<std::size_t>(out.quanta[j]);
  }
  return out;
}

TEST(SimdKernels, DpMatchesHistoricalPushLoopAtEveryWidth) {
  WidthRestorer restore;
  Rng rng(71);
  // Cell values: mostly quarter-steps (sums are exact, so ties are
  // common), some unround values, sums that fall below kDpInfeasible, huge
  // values that would lift an infeasible cell above kDpInfeasible if it
  // were taken, and holes written as kDpInfeasible, a finite value under
  // it, or -inf. A trial's hole rate ranges from sparse to mostly holes.
  double hole_rate = 0.0;
  const auto cell = [&rng, &hole_rate]() -> double {
    if (rng.uniform() < hole_rate) {
      const double u = rng.uniform();
      if (u < 1.0 / 3.0) return opt::kDpInfeasible;
      if (u < 2.0 / 3.0) return -2e300;
      return -std::numeric_limits<double>::infinity();
    }
    const double u = rng.uniform();
    if (u < 0.70) return 0.25 * static_cast<double>(rng.uniform_int(-16, 16));
    if (u < 0.85) return rng.uniform(-3.0, 3.0);
    if (u < 0.925) return -6e299;
    return 5e300;
  };
  long compared = 0, infeasible = 0;
  for (int G : {1, 3, 10, 40}) {
    for (int trial = 0; trial < 150; ++trial) {
      // A pool of distinct rows, some cut off below G; servers draw rows
      // from it, so most rows repeat.
      hole_rate = 0.1 + 0.35 * static_cast<double>(trial % 3);
      const auto pool_size = static_cast<int>(rng.uniform_int(1, 8));
      std::vector<std::vector<double>> pool;
      for (int r = 0; r < pool_size; ++r) {
        std::vector<double> row(static_cast<std::size_t>(G) + 1, 0.0);
        const int gmax = rng.bernoulli(0.3)
                             ? static_cast<int>(rng.uniform_int(0, G))
                             : G;
        for (int g = 1; g <= G; ++g)
          row[static_cast<std::size_t>(g)] =
              g <= gmax ? cell() : opt::kDpInfeasible;
        pool.push_back(std::move(row));
      }
      opt::DpTable table;
      table.reset(G);
      for (const auto& row : pool) {
        const int r = table.add_row();
        for (int g = 1; g <= G; ++g)
          table.set(r, g, row[static_cast<std::size_t>(g)]);
      }
      const auto J = static_cast<int>(rng.uniform_int(1, 100));
      std::vector<int> rows;
      std::vector<std::vector<double>> scores;
      for (int j = 0; j < J; ++j) {
        rows.push_back(static_cast<int>(rng.uniform_int(0, pool_size - 1)));
        scores.push_back(pool[static_cast<std::size_t>(rows.back())]);
      }
      const auto want = push_dp(scores, G);
      if (!want) ++infeasible;
      for (int w : sweep_widths()) {
        simd::override_width_for_test(w);
        const auto got = opt::dp_distribute(table, rows);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "G " << G << " trial " << trial << " width " << w;
        if (!got) continue;
        EXPECT_TRUE(bits_equal(got->score, want->score))
            << "G " << G << " trial " << trial << " width " << w;
        EXPECT_EQ(got->quanta, want->quanta)
            << "G " << G << " trial " << trial << " width " << w;
        ++compared;
      }
    }
  }
  // Both outcomes must be exercised.
  EXPECT_GT(compared, 300);
  EXPECT_GT(infeasible, 10);
}

}  // namespace
}  // namespace cloudalloc
