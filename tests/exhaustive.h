// Exhaustive enumeration of client->cluster assignments for tiny
// instances. The paper notes that only "very small input size" admits
// exhaustive search; it is the tests' optimality oracle
// (heuristic-vs-optimal on 2-4 clients), compiled into the tests that use
// it.
#pragma once

#include <functional>
#include <vector>

namespace cloudalloc::opt {

/// Calls `visit` with every assignment vector in {0..K-1}^N (K^N calls).
/// `visit` returns the achieved score; the best assignment and score are
/// returned through the out-parameters. N*log(K^N) must stay tiny.
void enumerate_assignments(
    int num_items, int num_bins,
    const std::function<double(const std::vector<int>&)>& visit,
    std::vector<int>* best_assignment, double* best_score);

}  // namespace cloudalloc::opt
