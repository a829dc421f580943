#include "exhaustive.h"

#include <limits>

#include "common/check.h"

namespace cloudalloc::opt {

void enumerate_assignments(
    int num_items, int num_bins,
    const std::function<double(const std::vector<int>&)>& visit,
    std::vector<int>* best_assignment, double* best_score) {
  CHECK(num_items >= 1);
  CHECK(num_bins >= 1);
  double check_size = 1.0;
  for (int i = 0; i < num_items; ++i) {
    check_size *= num_bins;
    CHECK_MSG(check_size <= 2e7, "exhaustive search space too large");
  }

  std::vector<int> assignment(static_cast<std::size_t>(num_items), 0);
  double best = -std::numeric_limits<double>::infinity();
  std::vector<int> best_vec = assignment;
  for (;;) {
    const double score = visit(assignment);
    if (score > best) {
      best = score;
      best_vec = assignment;
    }
    // Odometer increment.
    int pos = 0;
    while (pos < num_items) {
      if (++assignment[static_cast<std::size_t>(pos)] < num_bins) break;
      assignment[static_cast<std::size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == num_items) break;
  }
  if (best_assignment != nullptr) *best_assignment = best_vec;
  if (best_score != nullptr) *best_score = best;
}

}  // namespace cloudalloc::opt
