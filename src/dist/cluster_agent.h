// A cluster-level resource manager (the paper's "local agent"). Each agent
// owns one cluster and runs the cluster-local improvement stages on a
// snapshot of the global state; the manager builds the greedy start
// itself. Because every client is served by exactly one cluster, profit is
// separable by cluster, so agents can work on snapshots concurrently and
// the manager can merge their results without conflicts.
//
// ClusterAgent is the pure compute core (snapshot in, improvement out);
// AgentActor wraps it in a message-driven loop over a Transport channel —
// the form the paper's architecture actually calls for. The actor feeds
// the core snapshots rebuilt by protocol::rebuild_allocation, so a
// fault-free run is bit-identical to the same rounds run in one address
// space (tests/test_dist.cpp keeps that loop as the reference).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "alloc/options.h"
#include "dist/protocol.h"
#include "model/allocation.h"

namespace cloudalloc::dist {

class Transport;

class ClusterAgent {
 public:
  ClusterAgent(model::ClusterId cluster, alloc::AllocatorOptions opts)
      : cluster_(cluster), opts_(opts) {}

  model::ClusterId cluster() const { return cluster_; }

  /// Runs Adjust_ResourceShares on the cluster's servers,
  /// Adjust_DispersionRates on its clients, and TurnON/TurnOFF on the
  /// snapshot, which the agent owns (the actor hands it a private settled
  /// rebuild); returns the cluster's new placements.
  protocol::ClusterImprovement improve(model::Allocation snapshot) const;

 private:
  model::ClusterId cluster_;
  alloc::AllocatorOptions opts_;
};

/// The message-driven agent: a replica of the global placements (version-
/// stamped, delta-updated), a ClusterAgent core, and a receive loop that
/// services ImproveRequest / Shutdown until its channel closes. Runs on a
/// dedicated thread owned by the manager.
///
/// Loss tolerance is local and simple:
///   - a delta the replica cannot apply (missed base) is refused, and the
///     response reports the version the replica actually holds so the
///     manager can rebase;
///   - a duplicated improve round is answered by resending the cached
///     encoded response verbatim (idempotence), never by re-running the
///     stages on a regressed replica;
///   - a stale delta (target not ahead of the replica) never mutates it;
///   - a delta carrying any row the replica could not be rebuilt from
///     (protocol::row_violation) is refused whole, like a missed base.
class AgentActor {
 public:
  AgentActor(const model::Cloud& cloud, model::ClusterId cluster,
             alloc::AllocatorOptions opts, std::uint64_t epoch,
             Transport* transport);

  /// Blocks servicing messages until the channel closes or a Shutdown
  /// for this epoch arrives. Safe to call exactly once.
  void run();

 private:
  void handle_improve(const protocol::ImproveRequest& req);
  /// Applies a delta if it moves the replica forward; afterwards the
  /// replica is at the request's target iff the return value is true.
  bool apply_delta(const protocol::StateDelta& delta);
  model::Allocation rebuild() const;

  const model::Cloud& cloud_;
  ClusterAgent agent_;
  model::ClusterId cluster_;
  std::uint64_t epoch_;
  Transport* transport_;

  std::vector<protocol::ClientPlacements> replica_;  ///< dense by client id
  std::int64_t version_ = 0;
  std::map<int, std::string> improve_cache_;  ///< round -> encoded response
  bool manager_gone_ = false;
};

}  // namespace cloudalloc::dist
