// Adjust_ResourceShares (Section V-B-1): per-server convex reallocation of
// GPS shares with dispersion rates frozen. For each resource (processing,
// communication) the shares of all slices on the server are re-balanced by
// the KKT water-filling solver; the paper shows the minimization form is
// convex, so the closed form + bisection is exact for the linearized
// utility. Applied only when it does not decrease the true (clipped)
// profit, which keeps the outer local search monotone.
#pragma once

#include "alloc/options.h"
#include "model/alloc_state.h"

namespace cloudalloc::alloc {

/// Re-balances both resources' shares on server j. Returns the profit
/// delta actually realized (0 when the step was skipped or reverted).
double adjust_resource_shares(model::AllocState& state, model::ServerId j,
                              const AllocatorOptions& opts);

/// Runs adjust_resource_shares over every active server; returns the total
/// realized profit delta.
double adjust_all_shares(model::AllocState& state,
                         const AllocatorOptions& opts);

}  // namespace cloudalloc::alloc
