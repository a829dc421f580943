// dp_distribute as a width-dispatched kernel (see common/simd.h).
//
// The DP runs one step per server j: best'[s] = max over t of
// best[t] + f_j(s - t). The historical loop pushed each feasible
// (t, g) to s = t + g, visiting t ascending, and took a candidate only
// when it was strictly greater than the cell's current value, starting
// from kDpInfeasible. This kernel pulls instead: W lanes hold W adjacent
// cells s, and each lane gathers its candidates (t, g = s - t) in the same
// ascending t with the same strict > from kDpInfeasible, so every cell
// ends with the same value and the same chosen t as the push loop had —
// score bits, quanta and the tie-break contract are unchanged at every
// width. Infeasible cells hold -inf, so an infeasible candidate sums to
// -inf (or NaN) and never wins: one comparison per step decides. Row
// cells g < 0, which a lane reads when t > s, are the table's front pad
// of -inf. Only additions and comparisons run here, and the TU compiles
// with -ffp-contract=off like every kernel TU.
#include "opt/dp.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/simd.h"

namespace cloudalloc::opt {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr std::size_t kPad = DpTable::kPad;

/// One DP step over the row `row` (cells 0..G behind the table's pad):
/// next[s] and from[s] (the chosen t, -1 if none) for every s in [0, G].
/// best, next and from hold kPad cells before cell 0; blocks of W cells
/// end at G, so the lowest block may start below 0 and writes its lanes
/// s < 0 into that pad. reach is the largest t with a feasible best[t]
/// and gmax the row's largest feasible g; candidates outside both bounds
/// are infeasible, so skipping them changes nothing.
template <int W>
[[gnu::always_inline]] inline void pull_step(const double* best,
                                             const double* row, int G,
                                             int reach, int gmax,
                                             double* next, double* from) {
  for (int hi = G; hi >= 0; hi -= W) {
    const int lo = hi - W + 1;
    const int t_lo = std::max(0, lo - gmax);
    const int t_hi = std::min(hi, reach);
    if constexpr (W == 1) {  // simd.h has no one-lane vector
      double acc = kDpInfeasible;
      double chosen = -1.0;
      for (int t = t_lo; t <= t_hi; ++t) {
        const double cand = best[t] + row[lo - t];
        if (cand > acc) {
          acc = cand;
          chosen = static_cast<double>(t);
        }
      }
      next[lo] = acc > kDpInfeasible ? acc : kNegInf;
      from[lo] = chosen;
    } else {
      auto acc = simd::splat<W>(kDpInfeasible);
      auto chosen = simd::splat<W>(-1.0);
      auto tv = simd::splat<W>(static_cast<double>(t_lo));
      const auto one = simd::splat<W>(1.0);
      for (int t = t_lo; t <= t_hi; ++t) {
        const auto cand =
            simd::splat<W>(best[t]) + simd::load<W>(row + lo - t);
        const auto wins = cand > acc;
        acc = simd::select<W>(wins, cand, acc);
        chosen = simd::select<W>(wins, tv, chosen);
        tv = tv + one;
      }
      const auto infeasible = simd::splat<W>(kDpInfeasible);
      simd::store<W>(next + lo, simd::select<W>(acc > infeasible, acc,
                                                simd::splat<W>(kNegInf)));
      simd::store<W>(from + lo, chosen);
    }
  }
}

/// Runs every step of the DP and returns the final row; `from` holds one
/// stride-wide row per server.
template <int W>
[[gnu::always_inline]] inline const double* run_w(
    const DpTable& table, const std::vector<int>& rows, double* best,
    double* next, double* from, std::size_t stride) {
  const int G = table.G();
  int reach = 0;  // largest t that can be feasible so far
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const double* row = table.row(rows[j]);
    // A row's highest feasible quanta count bounds the useful range; rows
    // clamp early on nearly-full servers, so it is often far below G.
    int gmax = 0;
    for (int g = G; g >= 1; --g)
      if (row[g] > kDpInfeasible) {
        gmax = g;
        break;
      }
    pull_step<W>(best + kPad, row, G, reach, gmax, next + kPad,
                 from + j * stride + kPad);
    std::swap(best, next);
    reach = std::min(G, reach + gmax);
  }
  return best;
}

const double* run_scalar(const DpTable& table, const std::vector<int>& rows,
                        double* best, double* next, double* from,
                        std::size_t stride) {
  return run_w<1>(table, rows, best, next, from, stride);
}

#if CLOUDALLOC_SIMD_X86
__attribute__((target("avx2"))) const double* run_avx2(
    const DpTable& table, const std::vector<int>& rows, double* best,
    double* next, double* from, std::size_t stride) {
  return run_w<4>(table, rows, best, next, from, stride);
}
__attribute__((target("avx512f"))) const double* run_avx512(
    const DpTable& table, const std::vector<int>& rows, double* best,
    double* next, double* from, std::size_t stride) {
  return run_w<8>(table, rows, best, next, from, stride);
}
#endif

}  // namespace

std::optional<DpResult> dp_distribute(const DpTable& table,
                                      const std::vector<int>& rows) {
  const int G = table.G();
  CHECK(G >= 1);
  const std::size_t J = rows.size();
  CHECK(J >= 1);
  for (int r : rows)
    CHECK_MSG(r >= 0 && r < table.rows(), "row out of range");

  // best/next: the DP row before and after a step; from[j]: the t each
  // cell of step j pulled from. All are thread_local scratch sized to the
  // largest probe seen (this runs for every insertion probe), with kPad
  // cells before cell 0; each step writes every cell the traceback reads.
  const std::size_t stride = kPad + static_cast<std::size_t>(G) + 1;
  thread_local std::vector<double> best;
  thread_local std::vector<double> next;
  thread_local std::vector<double> from;
  best.assign(stride, kNegInf);
  best[kPad] = 0.0;
  next.resize(stride);
  if (from.size() < J * stride) from.resize(J * stride);

  const double* last = nullptr;
#if CLOUDALLOC_SIMD_X86
  switch (simd::active_width()) {
    case 8:
      last = run_avx512(table, rows, best.data(), next.data(), from.data(),
                        stride);
      break;
    case 4:
      last = run_avx2(table, rows, best.data(), next.data(), from.data(),
                      stride);
      break;
    default:
      last = run_scalar(table, rows, best.data(), next.data(), from.data(),
                        stride);
      break;
  }
#else
  last = run_scalar(table, rows, best.data(), next.data(), from.data(),
                    stride);
#endif

  const double score = last[kPad + static_cast<std::size_t>(G)];
  if (score <= kDpInfeasible) return std::nullopt;

  DpResult out;
  out.score = score;
  out.quanta.assign(J, 0);
  int s = G;
  for (std::size_t j = J; j-- > 0;) {
    const double t = from[j * stride + kPad + static_cast<std::size_t>(s)];
    CHECK(t >= 0.0 && t <= s);
    out.quanta[j] = s - static_cast<int>(t);
    s = static_cast<int>(t);
  }
  CHECK(s == 0);
  return out;
}

}  // namespace cloudalloc::opt
