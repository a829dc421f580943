// The manager <-> cluster-agent wire protocol (the paper's "limited
// communication"): every exchange is an explicit, typed message that
// crosses a Transport channel as one binary frame (dist/codec.h) — no
// Allocation pointer, reference, or any other shared mutable state
// crosses with it.
//
// State replication model: the manager is the authority for the global
// allocation and stamps it with a monotone `state version` (one bump per
// merged change). Each agent keeps a placements-only replica plus the
// version it has reached; requests carry a StateDelta — the absolute
// placements of every client that changed in (base_version,
// target_version] — so applying a delta is an idempotent overwrite. A
// replica at any version in [base, target) lands exactly on `target`;
// a replica behind `base` cannot apply the delta and says so in its
// response (`applied = false`), which tells the manager to rebase the
// next delta from the version the agent actually holds. Lost responses
// therefore cost bandwidth (a wider delta next round), never correctness.
//
// Duplicate/stale handling is seq-keyed and idempotent end to end:
//   - agents cache their encoded response per improvement round and
//     resend it verbatim when a duplicated request arrives;
//   - agents refuse to apply a delta whose target_version is not ahead of
//     their replica (a late-duplicated old request must not regress it);
//   - the manager discards responses whose (epoch, round) does not match
//     the in-flight round, but always folds the reported state_version
//     into its per-agent ack (versions are monotone, so max() is safe).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "model/allocation.h"
#include "model/types.h"

namespace cloudalloc::dist::protocol {

inline constexpr int kProtocolVersion = 2;

/// One client's absolute assignment (cluster + slices). `cluster ==
/// kNoCluster` with empty placements means "unassigned" — deltas need it
/// to propagate evictions.
struct ClientPlacements {
  model::ClientId client = model::kNoClient;
  model::ClusterId cluster = model::kNoCluster;
  std::vector<model::Placement> placements;
};

/// Absolute placements of every client that changed in
/// (base_version, target_version], sorted by client id.
struct StateDelta {
  std::int64_t base_version = 0;    ///< version the changes apply on top of
  std::int64_t target_version = 0;  ///< replica version after applying
  std::vector<ClientPlacements> changes;
};

/// One improvement round: update your replica, run the cluster-local
/// stages (Adjust_ResourceShares / Adjust_DispersionRates / TurnON /
/// TurnOFF), report your cluster's new placements.
struct ImproveRequest {
  std::uint64_t epoch = 0;
  int round = 0;  ///< improvement-round sequence number
  model::ClusterId cluster = model::kNoCluster;
  StateDelta delta;
};

/// The agent's new placements for its own clients (absolute; empty
/// placements = the agent evicted the client and the manager should
/// retry it globally), plus the profit delta the agent measured locally.
struct ClusterImprovement {
  model::ClusterId cluster = model::kNoCluster;
  std::vector<ClientPlacements> placements;
  double profit_delta = 0.0;
};

struct ImproveResponse {
  std::uint64_t epoch = 0;
  int round = 0;  ///< echoes ImproveRequest::round (dedup key)
  model::ClusterId cluster = model::kNoCluster;
  std::int64_t state_version = 0;
  bool applied = false;  ///< false = replica behind the delta's base
  ClusterImprovement improvement;
};

/// Clean shutdown: the actor loop exits after handling it. Closing the
/// agent's channel has the same effect (crash path); this is the polite
/// form that lets tests distinguish the two.
struct Shutdown {
  std::uint64_t epoch = 0;
};

/// Everything a manager can send to an agent. An agent sends only
/// ImproveResponses.
using AgentMessage = std::variant<ImproveRequest, Shutdown>;

/// Rebuilds a full Allocation from placement rows (sorted by client id;
/// unassigned rows skipped). Every agent snapshot is built through this
/// one function, so equal rows give equal assign sequences — and
/// therefore equal caches, bit for bit.
model::Allocation rebuild_allocation(const model::Cloud& cloud,
                                     const std::vector<ClientPlacements>& rows);

/// Why rebuild_allocation could not take `row` on `cloud` (a client id out
/// of range, or an assigned row that Allocation::assign would refuse), or
/// nullptr if it can. A row from the wire passes this before it is stored.
const char* row_violation(const model::Cloud& cloud,
                          const ClientPlacements& row);

/// Why the manager must not merge `improvement`: a row that fails
/// row_violation, or one that assigns a client to a cluster other than the
/// reporting one. nullptr if every row can be merged.
const char* improvement_violation(const model::Cloud& cloud,
                                  const ClusterImprovement& improvement);

}  // namespace cloudalloc::dist::protocol
