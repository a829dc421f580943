// A cluster-level resource manager (the paper's "local agent"). Each agent
// owns one cluster and can (a) price a client insertion against a snapshot
// of the global state and (b) run the cluster-local improvement stages.
// Because every client is served by exactly one cluster, profit is
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
#include <optional>
#include <string>
#include <vector>

#include "alloc/assign_distribute.h"
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

  /// Prices inserting client i into this agent's cluster against the
  /// snapshot (Assign_Distribute run remotely).
  std::optional<alloc::InsertionPlan> evaluate_insertion(
      const model::Allocation& snapshot, model::ClientId i,
      const alloc::InsertionConstraints& constraints = {}) const;

  /// Runs Adjust_ResourceShares on the cluster's servers,
  /// Adjust_DispersionRates on its clients, and TurnON/TurnOFF, all on a
  /// private copy of the snapshot; returns the cluster's new placements.
  protocol::ClusterImprovement improve(const model::Allocation& snapshot) const;

 private:
  model::ClusterId cluster_;
  alloc::AllocatorOptions opts_;
};

/// The message-driven agent: a replica of the global placements (version-
/// stamped, delta-updated), a ClusterAgent core, and a receive loop that
/// services BidRequest / ImproveRequest / Shutdown until its channel
/// closes. Runs on a dedicated thread owned by the manager.
///
/// Loss tolerance is local and simple:
///   - a delta the replica cannot apply (missed base) is refused, and the
///     response reports the version the replica actually holds so the
///     manager can rebase;
///   - a duplicated improve round is answered by resending the cached
///     encoded response verbatim (idempotence), never by re-running the
///     stages on a regressed replica;
///   - a stale delta (target not ahead of the replica) never mutates it.
class AgentActor {
 public:
  AgentActor(const model::Cloud& cloud, model::ClusterId cluster,
             alloc::AllocatorOptions opts, std::uint64_t epoch,
             Transport* transport);

  /// Blocks servicing messages until the channel closes or a Shutdown
  /// for this epoch arrives. Safe to call exactly once.
  void run();

  std::int64_t state_version() const { return version_; }

 private:
  void handle_bid(const protocol::BidRequest& req);
  void handle_improve(const protocol::ImproveRequest& req);
  /// Applies a delta if it moves the replica forward; afterwards the
  /// replica is at the request's target iff the return value is true.
  bool apply_delta(const protocol::StateDelta& delta);
  model::Allocation rebuild() const;
  /// False when the manager is gone — the loop should wind down.
  bool respond(const protocol::ManagerMessage& message);

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
