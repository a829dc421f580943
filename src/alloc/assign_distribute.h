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
// kDelayTargetFraction in share_policy.h), yielding a score
//
//   f_j(g) = -lambda_a * s * psi_g * T_j(psi_g)       (linearized utility)
//            - P1_j * psi_g * lambda * alpha_p / Cp_j  (load cost)
//            - P0_j * [server j currently OFF]         (activation)
//
// and a dynamic program combines servers under sum_j g_j = G. One pass over
// the cluster's servers screens out those without enough free disk for
// m_i (eq. 8) and those whose free shares cannot hold the stability floor
// (eq. 7) of even one quantum: their rows could not take part in any
// split. Every other server of the cluster is scored — rows with equal
// inputs once — and enters the DP, so the plan is exact for the grid.
//
// A probe splits into a per-client context (the linearization anchors,
// each server class's floors and demands, and the scored rows) and a
// per-cluster pass. best_insertion builds the context once and probes
// every cluster of the client's window with it; a row scored on one
// cluster serves every later candidate with the same key, since a row is
// a pure function of its key and the client. assign_distribute is the
// one-cluster case.
//
// Probes read the cluster's state from a ResidualView (model/residual.h):
// an Allocation's own (Allocation::residual(), AllocState::view()) or a
// speculative copy, so no probe needs an Allocation clone.
#pragma once

#include <optional>
#include <vector>

#include "alloc/options.h"
#include "model/placement.h"
#include "model/residual.h"

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
/// cluster k against the residuals in `view`. Returns nullopt when the
/// cluster cannot feasibly host the client.
std::optional<InsertionPlan> assign_distribute(
    const model::ResidualView& view, model::ClientId i, model::ClusterId k,
    const AllocatorOptions& opts, const InsertionConstraints& constraints = {},
    InsertionStats* stats = nullptr);

/// The clusters best_insertion probes for a client, in probe order:
/// cluster (first + t) mod K for t in [0, size).
struct ProbeWindow {
  int first = 0;
  int size = 0;
};

/// Client i's probe window over `num_clusters` clusters (see
/// AllocatorOptions::cluster_fanout). For a fanout in (0, K) a fixed
/// multiplicative hash of the client id picks the start, so the window
/// depends only on (client, K, fanout) — never on allocation state,
/// threads or shards — and clients spread evenly over the clusters. Any
/// other fanout gives every cluster, from cluster 0.
ProbeWindow probe_window(model::ClientId i, int num_clusters, int fanout);

/// Best insertion across client i's probe window (nullopt if none fits);
/// on equal scores the earlier cluster of the window wins.
std::optional<InsertionPlan> best_insertion(
    const model::ResidualView& view, model::ClientId i,
    const AllocatorOptions& opts, const InsertionConstraints& constraints = {},
    InsertionStats* stats = nullptr);

}  // namespace cloudalloc::alloc
