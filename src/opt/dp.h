// Quantized traffic-splitting dynamic program.
//
// Assign_Distribute discretizes a client's dispersion psi over servers on a
// grid of G quanta and, for each server j and quantum count g, precomputes
// the best achievable score f_j(g) (profit contribution with optimal
// shares). The DP then maximizes sum_j f_j(g_j) subject to sum_j g_j = G —
// a grouped (multiple-choice) knapsack solved in O(J * G^2).
#pragma once

#include <optional>
#include <vector>

namespace cloudalloc::opt {

inline constexpr double kDpInfeasible = -1e300;

struct DpResult {
  std::vector<int> quanta;  ///< g_j per server, summing to G
  double score = 0.0;
};

/// `scores[j][g]` for g in [0, G] is the score of giving server j exactly g
/// quanta; scores[j][0] must be 0. Use kDpInfeasible (or anything <= it)
/// to mark an infeasible (j, g). Returns nullopt when no feasible split of
/// all G quanta exists.
std::optional<DpResult> dp_distribute(
    const std::vector<std::vector<double>>& scores, int G);

}  // namespace cloudalloc::opt
