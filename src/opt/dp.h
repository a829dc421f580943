// Quantized traffic-splitting dynamic program.
//
// Assign_Distribute discretizes a client's dispersion psi over servers on a
// grid of G quanta and, for each server j and quantum count g, precomputes
// the best achievable score f_j(g) (profit contribution with optimal
// shares). The DP then maximizes sum_j f_j(g_j) subject to sum_j g_j = G —
// a grouped (multiple-choice) knapsack solved in O(J * G^2).
//
// Servers with equal inputs have equal rows, so the rows live in a DpTable,
// each stored once, and the DP reads server j's row through an index.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "common/check.h"

namespace cloudalloc::opt {

inline constexpr double kDpInfeasible = -1e300;

/// Score rows for dp_distribute, stored flat. Row r's cell g (g in [0, G])
/// is the score of giving a server with that row exactly g quanta; cell 0
/// is 0. A score at or below kDpInfeasible marks an infeasible (row, g)
/// and is stored as -inf. Each row sits behind kPad cells of -inf, which
/// the DP reads where it would look up a cell g < 0. Storage only grows,
/// so a table reused across calls allocates nothing in steady state.
class DpTable {
 public:
  static constexpr std::size_t kPad = 7;  ///< widest lane count minus one

  /// Drops every row; rows added next have G + 1 cells.
  void reset(int G) {
    CHECK(G >= 1);
    G_ = G;
    stride_ = kPad + static_cast<std::size_t>(G) + 1;
    rows_ = 0;
  }
  /// Appends a row infeasible past g = 0 and returns its index.
  int add_row() {
    const std::size_t end = (static_cast<std::size_t>(rows_) + 1) * stride_;
    if (cells_.size() < end) cells_.resize(end);
    double* row = cells_.data() + end - stride_;
    for (std::size_t c = 0; c < stride_; ++c)
      row[c] = -std::numeric_limits<double>::infinity();
    row[kPad] = 0.0;
    return rows_++;
  }
  /// Sets cell g (1 <= g <= G) of row r.
  void set(int r, int g, double score) {
    CHECK(r >= 0 && r < rows_ && g >= 1 && g <= G_);
    cells_[static_cast<std::size_t>(r) * stride_ + kPad +
           static_cast<std::size_t>(g)] =
        score > kDpInfeasible ? score
                              : -std::numeric_limits<double>::infinity();
  }
  /// Cells 0..G of row r; the kPad cells before it hold -inf.
  const double* row(int r) const {
    return cells_.data() + static_cast<std::size_t>(r) * stride_ + kPad;
  }
  int G() const { return G_; }
  int rows() const { return rows_; }

 private:
  int G_ = 0;
  int rows_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> cells_;
};

struct DpResult {
  std::vector<int> quanta;  ///< g_j per server, summing to G
  double score = 0.0;
};

/// Splits table.G() quanta over the servers j = 0..J-1, where server j
/// scores `table` row `rows[j]`. Returns nullopt when no feasible split of
/// all G quanta exists.
std::optional<DpResult> dp_distribute(const DpTable& table,
                                      const std::vector<int>& rows);

}  // namespace cloudalloc::opt
