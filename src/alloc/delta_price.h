// Clone-free move pricing: the exact profit delta of inserting, removing,
// or re-placing one client, computed as a pure function of a ResidualView
// and the client's placements — no Allocation mutation, no clone, no
// rollback, no cache repair.
//
// Why this is exact: under the model, client i's revenue depends only on
// its own placements (GPS shares isolate its M/M/1 queues from everyone
// else's), and a move changes server costs only on the servers i touches —
// through their processing utilization and their activation state. So the
// full-profit difference telescopes to
//
//   delta = +/- revenue_i(placements)
//           - sum_{touched j} (cost_j(after) - cost_j(before))
//
// where cost_j = x_j * (P0_j + P1_j * clamp(load_j / Cp_j, 0, 1)). The
// per-term arithmetic mirrors model/evaluator.cpp and ResidualView's
// add_client/remove_client — the updates every Allocation applies to its
// aggregates — operation-for-operation (including the zero reset when a
// server empties), so the delta agrees with the clone-and-evaluate oracle
// to rounding (tests assert 1e-9 on fuzzed scenarios).
//
// The reassignment passes use these to pre-screen moves against a shared
// snapshot before paying for an Allocation mutation, and the micro bench
// (bench/micro_kernels.cpp) measures the pricing itself against the
// clone-evaluate baseline it replaces.
#pragma once

#include <vector>

#include "alloc/options.h"
#include "model/diff.h"
#include "model/residual.h"

namespace cloudalloc::alloc {

/// Migration charge of re-placing a client from `old_ps` to `new_ps`
/// under opts.migration_cost (see the knob's comment): the decision-cost
/// term the move-making passes add to their accept thresholds when
/// warm-starting an epoch. Zero whenever the knob is off, the client was
/// unassigned, or the move redirects no traffic.
inline double migration_penalty(const AllocatorOptions& opts,
                                const std::vector<model::Placement>& old_ps,
                                const std::vector<model::Placement>& new_ps) {
  if (opts.migration_cost <= 0.0 || old_ps.empty()) return 0.0;
  return opts.migration_cost * model::redirected_fraction(old_ps, new_ps);
}

/// Profit delta of giving currently-unplaced client i the placements `ps`
/// (which must not overlap a server already hosting i in `view`).
double insertion_delta(const model::ResidualView& view, model::ClientId i,
                       const std::vector<model::Placement>& ps);

/// Profit delta of removing client i, whose current placements in `view`
/// are `ps`.
double removal_delta(const model::ResidualView& view, model::ClientId i,
                     const std::vector<model::Placement>& ps);

/// Profit delta of moving client i from `old_ps` to `new_ps` (the two may
/// overlap on servers). Internally removes i from the view to price the
/// insertion against the vacated state, then restores it bitwise — the
/// view is unchanged on return.
double replace_delta(model::ResidualView& view, model::ClientId i,
                     const std::vector<model::Placement>& old_ps,
                     const std::vector<model::Placement>& new_ps);

}  // namespace cloudalloc::alloc
