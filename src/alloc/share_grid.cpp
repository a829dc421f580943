// size_share_grid: the share-policy algebra of Assign_Distribute's per-
// quantum sizing loop, batched over the whole psi grid on SIMD lanes.
//
// Bit-identity: each output element is produced by the exact operation
// chain of the scalar path (gps_min_share -> preferred_share -> clamp,
// in that order, with std::min/std::max operand order preserved by
// simd::vmin/vmax), every operation is elementwise, and this TU compiles
// with -ffp-contract=off (alloc/CMakeLists.txt) so the mul+add in the
// preferred-share numerator is never fused on the FMA-capable targets.
// The scalar tail below therefore matches the vector body bitwise, and
// both match the historical per-g loop in assign_distribute.cpp.
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "alloc/share_policy.h"
#include "common/check.h"
#include "common/mathutil.h"
#include "common/simd.h"

namespace cloudalloc::alloc {

using units::ArrivalRate;
using units::Share;

namespace {

/// Scalar per-grid constants, hoisted once per call.
struct GridConsts {
  double lambda;       ///< client arrival rate
  double headroom;     ///< stability headroom (requests/s)
  double alpha;        ///< per-request work
  double cap;          ///< resource capacity
  double slack_work;   ///< per-client fleet slack budget
  double delay_slack;  ///< delay-target slack, +inf when no zero-crossing
  double free_share;   ///< free capacity on this server
};

/// Grid fraction of g quanta: the psi ladder every lane width consumes.
double grid_psi(int g, int G) {
  return static_cast<double>(g) / static_cast<double>(G);
}

/// Stability floor of the slice at grid fraction psi: the scalar form of
/// grid_w's floor_share (the lane expression is elementwise, so the vector
/// body matches it bitwise).
double floor_at(double psi, const GridConsts& gc) {
  const double arr = psi * gc.lambda;
  return (arr + gc.headroom) * gc.alpha / gc.cap;
}

template <int W>
[[gnu::always_inline]] inline void grid_w(const GridConsts& gc,
                                          const double* psi, int G,
                                          ArrivalRate* arrivals, Share* phi,
                                          double* floors) {
  int g = 1;
  if constexpr (W > 1) {
    const auto lambda = simd::splat<W>(gc.lambda);
    const auto headroom = simd::splat<W>(gc.headroom);
    const auto alpha = simd::splat<W>(gc.alpha);
    const auto cap = simd::splat<W>(gc.cap);
    const auto slack_w = simd::splat<W>(gc.slack_work);
    const auto delay_slack = simd::splat<W>(gc.delay_slack);
    const auto free_share = simd::splat<W>(gc.free_share);
    for (; g + W <= G + 1; g += W) {
      const auto p = simd::load<W>(psi + g);
      const auto arr = p * lambda;
      const auto floor_share = (arr + headroom) * alpha / cap;
      // preferred_share: slack = min(psi * budget, delay-target slack);
      // min's operand order matches the scalar std::min(slack, delay_slack).
      const auto slack = simd::vmin<W>(p * slack_w, delay_slack);
      const auto share = (arr * alpha + slack) / cap;
      // clamp(share, floor, free): lo = floor > hi ? hi : lo, then
      // min(max(x, lo), hi) — same comparisons as common/mathutil.h.
      const auto lo =
          simd::select<W>(floor_share > free_share, free_share, floor_share);
      const auto clamped =
          simd::vmin<W>(simd::vmax<W>(share, lo), free_share);
      simd::store<W>(arrivals + g, arr);
      simd::store<W>(phi + g, clamped);
      simd::store<W>(floors + g, floor_share);
    }
  }
  for (; g <= G; ++g) {
    const double arr = psi[g] * gc.lambda;
    const double floor_share = floor_at(psi[g], gc);
    const double slack = std::min(psi[g] * gc.slack_work, gc.delay_slack);
    const double share = (arr * gc.alpha + slack) / gc.cap;
    double lo = floor_share;
    if (lo > gc.free_share) lo = gc.free_share;
    arrivals[g] = ArrivalRate{arr};
    phi[g] = Share{std::min(std::max(share, lo), gc.free_share)};
    floors[g] = floor_share;
  }
}

void grid_scalar(const GridConsts& gc, const double* psi, int G,
                 ArrivalRate* arrivals, Share* phi, double* floors) {
  grid_w<1>(gc, psi, G, arrivals, phi, floors);
}

#if CLOUDALLOC_SIMD_X86
__attribute__((target("avx2"))) void grid_avx2(const GridConsts& gc,
                                               const double* psi, int G,
                                               ArrivalRate* arrivals,
                                               Share* phi, double* floors) {
  grid_w<4>(gc, psi, G, arrivals, phi, floors);
}
__attribute__((target("avx512f"))) void grid_avx512(const GridConsts& gc,
                                                    const double* psi, int G,
                                                    ArrivalRate* arrivals,
                                                    Share* phi,
                                                    double* floors) {
  grid_w<8>(gc, psi, G, arrivals, phi, floors);
}
#endif

}  // namespace

int size_share_grid(ArrivalRate lambda, int G, units::WorkRate cap,
                    units::Work alpha, units::Time zc,
                    units::WorkRate slack_work, const AllocatorOptions& opts,
                    double free_share, ArrivalRate* arrivals, Share* phi) {
  CHECK(G >= 1);
  CHECK(cap.value() > 0.0);
  CHECK(alpha.value() > 0.0);
  CHECK(lambda.value() >= 0.0);
  CHECK(opts.stability_headroom >= 0.0);

  GridConsts gc;
  gc.lambda = lambda.value();
  gc.headroom = opts.stability_headroom;
  gc.alpha = alpha.value();
  gc.cap = cap.value();
  gc.slack_work = slack_work.value();
  // preferred_share only caps by the delay-target slack for finite positive
  // zero-crossings; +inf makes the min a no-op, same as the scalar branch.
  gc.delay_slack =
      (std::isfinite(zc.value()) && zc.value() > 0.0)
          ? gc.alpha / (kDelayTargetFraction * zc.value())
          : std::numeric_limits<double>::infinity();
  gc.free_share = free_share;

  thread_local std::vector<double> psi, floors;
  const auto width = static_cast<std::size_t>(G) + 1;
  if (psi.size() < width) {
    psi.resize(width);
    floors.resize(width);
  }
  // The psi ladder is a pure elementwise division; filled scalar, consumed
  // by every lane width identically.
  for (int g = 1; g <= G; ++g)
    psi[static_cast<std::size_t>(g)] = grid_psi(g, G);

#if CLOUDALLOC_SIMD_X86
  switch (simd::active_width()) {
    case 8:
      grid_avx512(gc, psi.data(), G, arrivals, phi, floors.data());
      break;
    case 4:
      grid_avx2(gc, psi.data(), G, arrivals, phi, floors.data());
      break;
    default:
      grid_scalar(gc, psi.data(), G, arrivals, phi, floors.data());
      break;
  }
#else
  grid_scalar(gc, psi.data(), G, arrivals, phi, floors.data());
#endif

  // size_share's feasibility test, in grid order: the first g whose
  // stability floor exceeds the free capacity ends the feasible prefix
  // (larger g only needs more capacity).
  int gmax = 0;
  for (int g = 1; g <= G; ++g) {
    if (!floor_fits(floors[static_cast<std::size_t>(g)], free_share)) break;
    gmax = g;
  }
  return gmax;
}

double one_quantum_floor(ArrivalRate lambda, int G, units::WorkRate cap,
                         units::Work alpha, const AllocatorOptions& opts) {
  CHECK(G >= 1);
  GridConsts gc{};
  gc.lambda = lambda.value();
  gc.headroom = opts.stability_headroom;
  gc.alpha = alpha.value();
  gc.cap = cap.value();
  return floor_at(grid_psi(1, G), gc);
}

}  // namespace cloudalloc::alloc
