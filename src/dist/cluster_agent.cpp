#include "dist/cluster_agent.h"

#include <utility>

#include "alloc/adjust_dispersion.h"
#include "alloc/adjust_shares.h"
#include "alloc/server_power.h"
#include "common/check.h"
#include "dist/codec.h"
#include "dist/transport.h"
#include "model/alloc_state.h"
#include "model/evaluator.h"

namespace cloudalloc::dist {

std::optional<alloc::InsertionPlan> ClusterAgent::evaluate_insertion(
    const model::Allocation& snapshot, model::ClientId i,
    const alloc::InsertionConstraints& constraints) const {
  return alloc::assign_distribute(snapshot.residual(), i, cluster_, opts_,
                                  constraints);
}

protocol::ClusterImprovement ClusterAgent::improve(
    const model::Allocation& snapshot) const {
  const model::Cloud& cloud = snapshot.cloud();
  // Private engine copy at the snapshot boundary: the one Allocation copy
  // per agent per round that the message-passing model inherently needs
  // (improve only reads the snapshot it is given).
  // analyze: allow(allocation-copy) -- agent-snapshot boundary (see the
  // comment above: the one sanctioned copy per agent round).
  model::AllocState local(snapshot.clone());
  const double before = local.profit();

  if (opts_.enable_adjust_shares)
    for (model::ServerId j : cloud.cluster(cluster_).servers)
      if (local.ledger().active(j))
        alloc::adjust_resource_shares(local, j, opts_);
  if (opts_.enable_adjust_dispersion)
    for (model::ClientId i : cloud.client_ids())
      if (local.ledger().cluster_of(i) == cluster_)
        alloc::adjust_dispersion_rates(local, i, opts_);
  if (opts_.enable_turn_on) alloc::turn_on_servers(local, cluster_, opts_);
  if (opts_.enable_turn_off) alloc::turn_off_servers(local, cluster_, opts_);

  protocol::ClusterImprovement out;
  out.cluster = cluster_;
  out.profit_delta = local.profit() - before;
  for (model::ClientId i : cloud.client_ids()) {
    // Report every client that is (or was) ours so the manager can also
    // apply evictions performed by TurnOFF.
    const bool was_ours = snapshot.cluster_of(i) == cluster_;
    const bool is_ours = local.ledger().cluster_of(i) == cluster_;
    if (!was_ours && !is_ours) continue;
    protocol::ClientPlacements row;
    row.client = i;
    row.cluster = is_ours ? cluster_ : model::kNoCluster;
    if (is_ours) row.placements = local.ledger().placements(i);
    out.placements.push_back(std::move(row));
  }
  return out;
}

// --- AgentActor ----------------------------------------------------------

AgentActor::AgentActor(const model::Cloud& cloud, model::ClusterId cluster,
                       alloc::AllocatorOptions opts, std::uint64_t epoch,
                       Transport* transport)
    : cloud_(cloud),
      agent_(cluster, opts),
      cluster_(cluster),
      epoch_(epoch),
      transport_(transport) {
  CHECK(transport_ != nullptr);
  replica_.resize(static_cast<std::size_t>(cloud.num_clients()));
  for (model::ClientId i : cloud.client_ids())
    replica_[static_cast<std::size_t>(i.index())].client = i;
}

void AgentActor::run() {
  while (!manager_gone_) {
    auto bytes = transport_->agent_receive(cluster_.value());
    if (!bytes) break;  // channel closed (shutdown or injected crash)
    auto message = codec::decode_agent_message(*bytes);
    if (!message) continue;  // corrupted frame: skip, stay alive
    bool shutdown = false;
    std::visit(
        [&](const auto& m) {
          using M = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<M, protocol::BidRequest>) {
            if (m.epoch == epoch_) handle_bid(m);
          } else if constexpr (std::is_same_v<M, protocol::ImproveRequest>) {
            if (m.epoch == epoch_) handle_improve(m);
          } else {
            static_assert(std::is_same_v<M, protocol::Shutdown>);
            shutdown = m.epoch == epoch_;
          }
        },
        *message);
    if (shutdown) break;
  }
}

bool AgentActor::apply_delta(const protocol::StateDelta& delta) {
  // Exactly-at-target means "already applied" (duplicated request); a
  // strictly stale delta must never regress the replica.
  if (delta.target_version == version_) return true;
  if (delta.target_version < version_) return false;
  if (delta.base_version > version_) return false;  // missed a delta
  for (const protocol::ClientPlacements& row : delta.changes) {
    const auto idx = static_cast<std::size_t>(row.client.index());
    if (idx >= replica_.size()) return false;  // corrupt; refuse wholesale
    replica_[idx] = row;
  }
  version_ = delta.target_version;
  return true;
}

model::Allocation AgentActor::rebuild() const {
  model::Allocation snapshot =
      protocol::rebuild_allocation(cloud_, replica_);
  // Settle before handing out: the agent reads a freshly-rebuilt, settled
  // snapshot, bitwise what the in-memory reference rounds hand it.
  (void)model::profit(snapshot);
  return snapshot;
}

bool AgentActor::respond(const protocol::ManagerMessage& message) {
  if (!transport_->send_to_manager(cluster_.value(), codec::encode(message))) {
    manager_gone_ = true;  // propagate the refused send: run is over
    return false;
  }
  return true;
}

void AgentActor::handle_bid(const protocol::BidRequest& req) {
  protocol::BidResponse resp;
  resp.epoch = epoch_;
  resp.seq = req.seq;
  resp.cluster = cluster_;
  resp.applied = apply_delta(req.delta);
  resp.state_version = version_;
  if (resp.applied) {
    const model::Allocation snapshot = rebuild();
    const auto plan = agent_.evaluate_insertion(snapshot, req.client);
    resp.feasible = plan.has_value();
    if (plan) {
      resp.score = plan->score;
      resp.placements = plan->placements;
    }
  }
  (void)respond(protocol::ManagerMessage{std::move(resp)});
}

void AgentActor::handle_improve(const protocol::ImproveRequest& req) {
  // Duplicate round: resend the cached encoded response verbatim.
  if (const auto it = improve_cache_.find(req.round);
      it != improve_cache_.end()) {
    if (!transport_->send_to_manager(cluster_.value(), it->second))
      manager_gone_ = true;
    return;
  }
  protocol::ImproveResponse resp;
  resp.epoch = epoch_;
  resp.round = req.round;
  resp.cluster = cluster_;
  resp.applied = apply_delta(req.delta);
  resp.state_version = version_;
  if (resp.applied) resp.improvement = agent_.improve(rebuild());
  const std::string bytes = codec::encode(protocol::ManagerMessage{resp});
  if (resp.applied) {
    improve_cache_[req.round] = bytes;
    // The manager only ever re-asks about recent rounds; cap the cache.
    while (improve_cache_.size() > 4)
      improve_cache_.erase(improve_cache_.begin());
  }
  if (!transport_->send_to_manager(cluster_.value(), bytes))
    manager_gone_ = true;
}

}  // namespace cloudalloc::dist
