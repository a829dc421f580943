// Width-dispatched implementations of the batched queueing kernels. Each
// kernel body is written once, templated on the lane width W, and
// instantiated behind per-ISA wrappers (scalar / AVX2 / AVX-512F) chosen
// at runtime by simd::active_width(). Every operation is elementwise and
// executes in the exact order of the historical scalar loop, and this TU
// is compiled with -ffp-contract=off (see queueing/CMakeLists.txt), so
// the result arrays are bitwise identical at every width — the scoring
// and certification paths rely on that.
#include "queueing/batch.h"

#include <limits>

#include "common/simd.h"

namespace cloudalloc::queueing {

using units::ArrivalRate;
using units::Share;
using units::Time;
using units::Work;
using units::WorkRate;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

template <int W>
[[gnu::always_inline]] inline void gps_rates_w(const Share* phi,
                                               double capacity, double alpha,
                                               ArrivalRate* mu,
                                               std::size_t n) {
  std::size_t i = 0;
  if constexpr (W > 1) {
    const auto cap = simd::splat<W>(capacity);
    const auto al = simd::splat<W>(alpha);
    for (; i + W <= n; i += W) {
      const auto p = simd::load<W>(phi + i);
      simd::store<W>(mu + i, p * cap / al);
    }
  }
  for (; i < n; ++i) {
    mu[i] = ArrivalRate{phi[i].value() * capacity / alpha};
  }
}

template <int W>
[[gnu::always_inline]] inline void mm1_w(const ArrivalRate* lambda,
                                         const ArrivalRate* mu, Time* out,
                                         std::size_t n) {
  std::size_t i = 0;
  if constexpr (W > 1) {
    const auto zero = simd::splat<W>(0.0);
    const auto one = simd::splat<W>(1.0);
    const auto inf = simd::splat<W>(kInf);
    for (; i + W <= n; i += W) {
      const auto l = simd::load<W>(lambda + i);
      const auto m = simd::load<W>(mu + i);
      const auto stable = (l >= zero) & (m > zero) & (l < m);
      const auto r = one / (m - l);
      simd::store<W>(out + i, simd::select<W>(stable, r, inf));
    }
  }
  for (; i < n; ++i) {
    const bool stable = lambda[i].value() >= 0.0 && mu[i].value() > 0.0 &&
                        lambda[i] < mu[i];
    out[i] = stable ? 1.0 / (mu[i] - lambda[i]) : Time{kInf};
  }
}

template <int W>
[[gnu::always_inline]] inline void two_stage_w(const ArrivalRate* lambda,
                                               const ArrivalRate* mu_p,
                                               const ArrivalRate* mu_n,
                                               Time* out, std::size_t n) {
  std::size_t i = 0;
  if constexpr (W > 1) {
    const auto zero = simd::splat<W>(0.0);
    const auto one = simd::splat<W>(1.0);
    const auto inf = simd::splat<W>(kInf);
    for (; i + W <= n; i += W) {
      const auto l = simd::load<W>(lambda + i);
      const auto mp = simd::load<W>(mu_p + i);
      const auto mn = simd::load<W>(mu_n + i);
      const auto nonneg = l >= zero;
      const auto stable_p = nonneg & (mp > zero) & (l < mp);
      const auto stable_n = nonneg & (mn > zero) & (l < mn);
      const auto tp = simd::select<W>(stable_p, one / (mp - l), inf);
      const auto tn = simd::select<W>(stable_n, one / (mn - l), inf);
      simd::store<W>(out + i, tp + tn);
    }
  }
  for (; i < n; ++i) {
    const ArrivalRate l = lambda[i];
    const bool stable_p = l.value() >= 0.0 && mu_p[i].value() > 0.0 &&
                          l < mu_p[i];
    const bool stable_n = l.value() >= 0.0 && mu_n[i].value() > 0.0 &&
                          l < mu_n[i];
    const Time tp = stable_p ? 1.0 / (mu_p[i] - l) : Time{kInf};
    const Time tn = stable_n ? 1.0 / (mu_n[i] - l) : Time{kInf};
    out[i] = tp + tn;
  }
}

// --- per-ISA wrappers ----------------------------------------------------
// The always-inline template bodies compile inside these target-attributed
// functions, so the same source lowers to xmm/ymm/zmm code respectively.
// The width-8 bodies that combine comparisons are instantiated under
// avx512f first, or GCC would lower those comparisons lane by lane (see
// CLOUDALLOC_SIMD_AVX512_BEGIN in common/simd.h).

#if CLOUDALLOC_SIMD_X86
CLOUDALLOC_SIMD_AVX512_BEGIN
template void mm1_w<8>(const ArrivalRate*, const ArrivalRate*, Time*,
                       std::size_t);
template void two_stage_w<8>(const ArrivalRate*, const ArrivalRate*,
                             const ArrivalRate*, Time*, std::size_t);
CLOUDALLOC_SIMD_AVX512_END
#endif

void gps_rates_scalar(const Share* phi, double cap, double alpha,
                      ArrivalRate* mu, std::size_t n) {
  gps_rates_w<1>(phi, cap, alpha, mu, n);
}
void mm1_scalar(const ArrivalRate* lambda, const ArrivalRate* mu, Time* out,
                std::size_t n) {
  mm1_w<1>(lambda, mu, out, n);
}
void two_stage_scalar(const ArrivalRate* lambda, const ArrivalRate* mu_p,
                      const ArrivalRate* mu_n, Time* out, std::size_t n) {
  two_stage_w<1>(lambda, mu_p, mu_n, out, n);
}

#if CLOUDALLOC_SIMD_X86
__attribute__((target("avx2"))) void gps_rates_avx2(const Share* phi,
                                                    double cap, double alpha,
                                                    ArrivalRate* mu,
                                                    std::size_t n) {
  gps_rates_w<4>(phi, cap, alpha, mu, n);
}
__attribute__((target("avx512f"))) void gps_rates_avx512(const Share* phi,
                                                         double cap,
                                                         double alpha,
                                                         ArrivalRate* mu,
                                                         std::size_t n) {
  gps_rates_w<8>(phi, cap, alpha, mu, n);
}
__attribute__((target("avx2"))) void mm1_avx2(const ArrivalRate* lambda,
                                              const ArrivalRate* mu,
                                              Time* out, std::size_t n) {
  mm1_w<4>(lambda, mu, out, n);
}
__attribute__((target("avx512f"))) void mm1_avx512(const ArrivalRate* lambda,
                                                   const ArrivalRate* mu,
                                                   Time* out, std::size_t n) {
  mm1_w<8>(lambda, mu, out, n);
}
__attribute__((target("avx2"))) void two_stage_avx2(const ArrivalRate* lambda,
                                                    const ArrivalRate* mu_p,
                                                    const ArrivalRate* mu_n,
                                                    Time* out,
                                                    std::size_t n) {
  two_stage_w<4>(lambda, mu_p, mu_n, out, n);
}
__attribute__((target("avx512f"))) void two_stage_avx512(
    const ArrivalRate* lambda, const ArrivalRate* mu_p,
    const ArrivalRate* mu_n, Time* out, std::size_t n) {
  two_stage_w<8>(lambda, mu_p, mu_n, out, n);
}
#endif  // CLOUDALLOC_SIMD_X86

}  // namespace

void gps_service_rates(const Share* phi, WorkRate capacity, Work alpha,
                       ArrivalRate* mu, std::size_t n) {
#if CLOUDALLOC_SIMD_X86
  switch (simd::active_width()) {
    case 8:
      gps_rates_avx512(phi, capacity.value(), alpha.value(), mu, n);
      return;
    case 4:
      gps_rates_avx2(phi, capacity.value(), alpha.value(), mu, n);
      return;
    default:
      break;
  }
#endif
  gps_rates_scalar(phi, capacity.value(), alpha.value(), mu, n);
}

void mm1_response_times(const ArrivalRate* lambda, const ArrivalRate* mu,
                        Time* out, std::size_t n) {
#if CLOUDALLOC_SIMD_X86
  switch (simd::active_width()) {
    case 8:
      mm1_avx512(lambda, mu, out, n);
      return;
    case 4:
      mm1_avx2(lambda, mu, out, n);
      return;
    default:
      break;
  }
#endif
  mm1_scalar(lambda, mu, out, n);
}

void two_stage_delays(const ArrivalRate* lambda, const ArrivalRate* mu_p,
                      const ArrivalRate* mu_n, Time* out, std::size_t n) {
#if CLOUDALLOC_SIMD_X86
  switch (simd::active_width()) {
    case 8:
      two_stage_avx512(lambda, mu_p, mu_n, out, n);
      return;
    case 4:
      two_stage_avx2(lambda, mu_p, mu_n, out, n);
      return;
    default:
      break;
  }
#endif
  two_stage_scalar(lambda, mu_p, mu_n, out, n);
}

}  // namespace cloudalloc::queueing
