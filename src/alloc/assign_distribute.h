// Assign_Distribute(i, k): the paper's per-cluster insertion evaluator.
//
// Given the current state of cluster k, it answers "if client i were
// served by this cluster, how would its traffic best split over the
// cluster's servers, what GPS shares would the slices hold, and what is
// the approximate profit?". Used by the greedy initial solution, the
// cloud-level reassignment local search, TurnON/TurnOFF reallocation, and
// every baseline that needs cluster-level allocation.
//
// Method (Section V-A): psi is discretized on a grid of G quanta. For each
// candidate server j and quantum count g the slice's shares are sized by
// the clamped closed form (stability floor <= share <= free capacity,
// targeting a fixed fraction of the client's utility zero-crossing — see
// AllocatorOptions::delay_target_fraction), yielding a score
//
//   f_j(g) = -lambda_a * s * psi_g * T_j(psi_g)       (linearized utility)
//            - P1_j * psi_g * lambda * alpha_p / Cp_j  (load cost)
//            - P0_j * [server j currently OFF]         (activation)
//
// and a dynamic program combines servers under sum_j g_j = G. Servers
// without enough free disk for m_i are excluded up front (eq. 8), and so
// are servers whose free shares cannot hold the stability floor (eq. 7) of
// even one quantum: their rows could not take part in any split. Every
// other server of the cluster is scored — rows with equal inputs once —
// and enters the DP, so the plan is exact for the grid.
//
// Both the full Allocation and the flat ResidualView (model/residual.h)
// satisfy the state interface, so speculative probes can run against a
// cheap SoA snapshot without cloning an Allocation.
#pragma once

#include <optional>
#include <vector>

#include "alloc/options.h"
#include "model/allocation.h"

namespace cloudalloc::model {
class ResidualView;
}  // namespace cloudalloc::model

namespace cloudalloc::alloc {

/// Restrictions on which servers may host the insertion.
struct InsertionConstraints {
  model::ServerId exclude = model::kNoServer;  ///< never place here
  bool allow_inactive = true;  ///< if false, only already-ON servers
};

/// A fully-specified candidate insertion of one client into one cluster.
struct InsertionPlan {
  model::ClusterId cluster = model::kNoCluster;
  std::vector<model::Placement> placements;
  /// Approximate profit contribution (linearized revenue minus new costs);
  /// comparable across clusters for the same client.
  double score = 0.0;
};

/// Probe counters, accumulated across calls. Every probe with at least
/// one candidate server counts in full_solves; the other two counters
/// stay 0 (they remain because the benchmark reports them).
struct InsertionStats {
  int pruned_solves = 0;
  int exact_fallbacks = 0;
  int full_solves = 0;  ///< probes that scored their candidate rows
};

/// Evaluates the best insertion of (currently unassigned) client i into
/// cluster k against the allocation's current state. Returns nullopt when
/// the cluster cannot feasibly host the client.
std::optional<InsertionPlan> assign_distribute(
    const model::Allocation& alloc, model::ClientId i, model::ClusterId k,
    const AllocatorOptions& opts, const InsertionConstraints& constraints = {},
    InsertionStats* stats = nullptr);

/// Same evaluation against a ResidualView snapshot — no Allocation needed.
std::optional<InsertionPlan> assign_distribute(
    const model::ResidualView& view, model::ClientId i, model::ClusterId k,
    const AllocatorOptions& opts, const InsertionConstraints& constraints = {},
    InsertionStats* stats = nullptr);

/// Convenience: best insertion across all clusters (nullopt if none fits).
std::optional<InsertionPlan> best_insertion(
    const model::Allocation& alloc, model::ClientId i,
    const AllocatorOptions& opts, const InsertionConstraints& constraints = {},
    InsertionStats* stats = nullptr);

/// best_insertion against a ResidualView snapshot.
std::optional<InsertionPlan> best_insertion(
    const model::ResidualView& view, model::ClientId i,
    const AllocatorOptions& opts, const InsertionConstraints& constraints = {},
    InsertionStats* stats = nullptr);

}  // namespace cloudalloc::alloc
