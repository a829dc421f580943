#include "opt/dp.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace cloudalloc::opt {

std::optional<DpResult> dp_distribute(
    const std::vector<std::vector<double>>& scores, int G) {
  CHECK(G >= 1);
  const std::size_t J = scores.size();
  CHECK(J >= 1);
  const std::size_t width = static_cast<std::size_t>(G) + 1;
  for (const auto& row : scores) {
    CHECK_MSG(row.size() == width, "scores[j] must have G+1 entries");
    CHECK_MSG(row[0] == 0.0, "giving zero quanta must score zero");
  }

  // best[t] after processing servers 0..j; choice[j*width + t] = quanta
  // for j. The iteration (t ascending, then g ascending from 0) and the
  // strictly-greater update are the tie-break contract: reorderings change
  // which equal-scoring split the traceback returns. The tables are
  // thread_local scratch — this runs for every insertion probe and
  // reallocating J*width ints per call dominated the allocator heap.
  thread_local std::vector<double> best;
  thread_local std::vector<double> next;
  thread_local std::vector<int> choice;
  best.assign(width, kDpInfeasible);
  next.resize(width);
  choice.assign(J * width, -1);
  best[0] = 0.0;
  std::size_t reach = 0;  // largest t that can be feasible so far

  for (std::size_t j = 0; j < J; ++j) {
    const std::vector<double>& row = scores[j];
    int* const ch = choice.data() + j * width;
    // A row's highest feasible quanta count bounds the useful inner range;
    // rows clamp early on nearly-full servers, so it is often far below G.
    // (Infeasible holes below gmax are still checked inside the loop.)
    std::size_t gmax = 0;
    for (std::size_t g = width - 1; g >= 1; --g)
      if (row[g] > kDpInfeasible) {
        gmax = g;
        break;
      }
    next.assign(width, kDpInfeasible);
    for (std::size_t t = 0; t <= reach; ++t) {
      const double base = best[t];
      if (base <= kDpInfeasible) continue;
      if (base > next[t]) {  // g = 0: row[0] == 0.0 by contract
        next[t] = base;
        ch[t] = 0;
      }
      const std::size_t glim = std::min(gmax, width - 1 - t);
      for (std::size_t g = 1; g <= glim; ++g) {
        if (row[g] <= kDpInfeasible) continue;
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

  if (best[static_cast<std::size_t>(G)] <= kDpInfeasible) return std::nullopt;

  DpResult out;
  out.score = best[static_cast<std::size_t>(G)];
  out.quanta.assign(J, 0);
  std::size_t t = static_cast<std::size_t>(G);
  for (std::size_t j = J; j-- > 0;) {
    const int g = choice[j * width + t];
    CHECK(g >= 0);
    out.quanta[j] = g;
    t -= static_cast<std::size_t>(g);
  }
  CHECK(t == 0);
  return out;
}

}  // namespace cloudalloc::opt
