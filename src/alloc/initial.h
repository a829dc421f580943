// Initial-solution construction (Section V-A): randomized-order greedy
// insertion, repeated num_initial_solutions times, keeping the best.
// Also provides build_from_assignment, the shared "decode a cluster
// assignment vector into a full allocation" used by the Monte-Carlo,
// SA and GA baselines.
#pragma once

#include <vector>

#include "alloc/assign_distribute.h"
#include "common/rng.h"
#include "dist/parallel_eval.h"
#include "model/allocation.h"

namespace cloudalloc::alloc {

/// One greedy pass: clients in `order` are inserted one at a time into the
/// cluster with the best Assign_Distribute score. Clients that fit nowhere
/// are left unassigned. Starts from an empty allocation over `cloud`
/// (whose servers carry any background load).
model::Allocation greedy_insert(const model::Cloud& cloud,
                                const std::vector<model::ClientId>& order,
                                const AllocatorOptions& opts);

/// The paper's multi-start initial solution: `opts.num_initial_solutions`
/// random client orders, best profit wins. All orders are drawn from `rng`
/// up front (in start order), making every greedy start an independent
/// pure task that can run concurrently on `eval`; the argmax reduction
/// (highest profit, lowest start index on ties) is then bit-identical at
/// any thread count, and identical to the historical sequential loop.
model::Allocation build_initial_solution(const model::Cloud& cloud,
                                         const AllocatorOptions& opts,
                                         Rng& rng,
                                         const dist::ParallelEval& eval = {});

/// Decodes a fixed client->cluster map (assignment[i] = cluster of client
/// i, or kNoCluster to skip) into an allocation by inserting clients in
/// index order. Infeasible clients are left unassigned.
model::Allocation build_from_assignment(
    const model::Cloud& cloud, const std::vector<model::ClusterId>& assignment,
    const AllocatorOptions& opts);

}  // namespace cloudalloc::alloc
