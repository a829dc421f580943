// Adjust_DispersionRates (Section V-B): the dual of Adjust_ResourceShares.
// With GPS shares frozen, one client's traffic split psi over its current
// slices is re-optimized by the convex dispersion solver. Slices driven to
// (near) zero are dropped, releasing their shares and disk — this is the
// paper's consolidation lever inside a cluster.
#pragma once

#include "alloc/options.h"
#include "model/alloc_state.h"

namespace cloudalloc::alloc {

/// Re-splits client i's traffic across its current servers. Returns the
/// realized profit delta (0 when skipped or reverted).
double adjust_dispersion_rates(model::AllocState& state, model::ClientId i,
                               const AllocatorOptions& opts);

/// Runs the adjustment for every assigned client; returns the total delta.
double adjust_all_dispersions(model::AllocState& state,
                              const AllocatorOptions& opts);

}  // namespace cloudalloc::alloc
