// Mutable allocation state for one decision epoch: which cluster serves
// each client (y), how the client's traffic is dispersed over servers
// (psi), and the GPS shares it holds on each server (phi_p, phi_n).
//
// Allocation maintains per-server aggregates (used shares, disk, processing
// load, hosted clients) incrementally so the heuristic's inner loops stay
// O(changed placements), and exposes the derived quantities the model
// needs: server activity x_j, utilization, and client response times.
//
// Concurrency (the frozen-snapshot contract used by the parallel
// evaluation engine): Allocation is not internally synchronized. The
// profit cache makes cached_profit() a const-but-mutating repair, so a
// shared instance is safe for concurrent const access ONLY once the cache
// is settled — call model::profit(a) once, then profit_settled() holds and
// every const accessor (is_assigned, cluster_of, placements,
// response_time, the server aggregates, active, clients_on, clone) is a
// pure read. Workers that need to mutate or re-price must clone() the
// settled snapshot and work on the private copy. Parallel call sites
// CHECK(profit_settled()) before fanning out.
#pragma once

#include <vector>

#include "model/cloud.h"
#include "queueing/response_time.h"

namespace cloudalloc::model {

/// One client's slice on one server.
struct Placement {
  ServerId server = kNoServer;
  double psi = 0.0;    ///< fraction of the client's requests sent to `server`
  double phi_p = 0.0;  ///< GPS share of the server's processing capacity
  double phi_n = 0.0;  ///< GPS share of the server's communication capacity
};

class Allocation {
 public:
  explicit Allocation(const Cloud& cloud);

  const Cloud& cloud() const { return *cloud_; }

  // --- client-side state ------------------------------------------------

  bool is_assigned(ClientId i) const;
  ClusterId cluster_of(ClientId i) const;
  const std::vector<Placement>& placements(ClientId i) const;

  /// Replaces client i's entire assignment. Every placement must reference
  /// a distinct server of cluster `k`, have psi in (0,1] summing to ~1, and
  /// non-negative shares. Aggregates are updated incrementally.
  void assign(ClientId i, ClusterId k, std::vector<Placement> ps);

  /// Removes client i from the system (no cluster, no placements).
  void clear(ClientId i);

  /// Mean response time of client i under the analytic GPS/M-M-1 model;
  /// +infinity if unstable, and +infinity for unassigned clients (callers
  /// treat unassigned revenue as zero before consulting this).
  double response_time(ClientId i) const;

  // --- server-side aggregates (background load included) -----------------

  double used_phi_p(ServerId j) const;
  double used_phi_n(ServerId j) const;
  double used_disk(ServerId j) const;
  double free_phi_p(ServerId j) const { return 1.0 - used_phi_p(j); }
  double free_phi_n(ServerId j) const { return 1.0 - used_phi_n(j); }
  double free_disk(ServerId j) const;

  /// Sum over hosted clients of psi*lambda_pred*alpha_p (offered processing
  /// work per unit time), which divided by Cp is the utilization that P1
  /// multiplies.
  double proc_load(ServerId j) const;
  double proc_utilization(ServerId j) const;

  /// x_j: a server is ON iff it hosts at least one placement or its
  /// background load keeps it on.
  bool active(ServerId j) const;

  /// Clients with psi > 0 on server j (unordered).
  const std::vector<ClientId>& clients_on(ServerId j) const;

  /// Clients assigned to cluster k, ascending by id. O(cluster): gathered
  /// from k's servers' hosted lists, not by scanning every client.
  std::vector<ClientId> clients_in(ClusterId k) const;

  int num_active_servers() const;

  /// Deep copy, for the documented snapshot boundaries (a distributed
  /// agent's private copy, the greedy's base state). In-place speculation
  /// uses AllocState savepoints instead.
  Allocation clone() const { return *this; }

  /// Total profit (eq. 2), maintained incrementally: a mutation of client
  /// i only dirties i's revenue and the touched servers' costs, so after
  /// local moves this is O(changed entries) instead of O(N + J). The
  /// scratch-recomputing model::evaluate() is the independent oracle;
  /// tests assert they always agree.
  double cached_profit() const;

  /// True when no cache repairs are pending: every const accessor is then
  /// a pure read and the instance may be shared across threads as a frozen
  /// snapshot (see the class comment). Established by calling
  /// cached_profit() / model::profit() after the last mutation.
  bool profit_settled() const {
    return dirty_clients_.empty() && dirty_servers_.empty();
  }

 private:
  friend class ResidualView;
  friend class AllocState;

  struct ServerAgg {
    double phi_p = 0.0;
    double phi_n = 0.0;
    double disk = 0.0;
    double load_p = 0.0;
    std::vector<ClientId> clients;
  };

  void remove_footprint(ClientId i);
  void add_footprint(ClientId i);
  void mark_client_dirty(ClientId i);
  void mark_server_dirty(ServerId j);

  const Cloud* cloud_;
  IdVector<ClientId, ClusterId> cluster_of_;
  IdVector<ClientId, std::vector<Placement>> placements_;
  IdVector<ServerId, ServerAgg> server_;

  // Incremental-profit caches. `profit_total_` always equals the sum of
  // the *cached* values; repairing a dirty entry adjusts the total by the
  // delta, so the invariant survives partial repairs.
  mutable IdVector<ClientId, double> revenue_cache_;
  mutable IdVector<ServerId, double> cost_cache_;
  mutable std::vector<ClientId> dirty_clients_;
  mutable std::vector<ServerId> dirty_servers_;
  mutable IdVector<ClientId, bool> client_dirty_;
  mutable IdVector<ServerId, bool> server_dirty_;
  mutable double profit_total_ = 0.0;
  mutable std::size_t repairs_ = 0;  ///< since the last drift rebase
};

}  // namespace cloudalloc::model
