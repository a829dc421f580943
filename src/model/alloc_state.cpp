#include "model/alloc_state.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/check.h"
#include "model/evaluator.h"

namespace cloudalloc::model {

void AllocState::assign(ClientId i, ClusterId k, std::vector<Placement> ps) {
  check_saved(i);
  CHECK_MSG(depth_ == 0 || k == savepoints_[depth_ - 1].cluster,
            "assign outside the cluster of the open savepoint");
  ledger_.assign(i, k, std::move(ps));
}

void AllocState::clear(ClientId i) {
  check_saved(i);
  ledger_.clear(i);
}

double AllocState::profit() { return model::profit(ledger_); }

void AllocState::adopt(AllocState&& other) {
  CHECK_MSG(depth_ == 0, "adopt() with a savepoint open");
  ledger_ = std::move(other.ledger_);
}

void AllocState::save(ClusterId k) {
  CHECK_MSG(ledger_.profit_settled(), "save() needs a settled ledger");
  CHECK_MSG(depth_ == 0 || k == savepoints_[depth_ - 1].cluster,
            "nested savepoints must name the same cluster");
  if (depth_ == savepoints_.size()) savepoints_.emplace_back();
  Savepoint& sp = savepoints_[depth_++];
  sp.cluster = k;
  ledger_.residual_.save_cluster(k, sp.residual);
  const std::vector<ServerId>& servers = cloud().cluster(k).servers;
  sp.hosted.resize(servers.size());
  sp.costs.resize(servers.size());
  for (std::size_t idx = 0; idx < servers.size(); ++idx) {
    sp.hosted[idx] = ledger_.hosted_[servers[idx]];
    sp.costs[idx] = ledger_.cost_cache_[servers[idx]];
  }
  const std::vector<ClientId> clients = ledger_.clients_in(k);
  sp.clients.resize(clients.size());
  for (std::size_t idx = 0; idx < clients.size(); ++idx) {
    SavedClient& rec = sp.clients[idx];
    const ClientId i = clients[idx];
    rec.id = i;
    rec.placements = ledger_.placements_[i];
    rec.revenue = ledger_.revenue_cache_[i];
  }
  sp.profit_total = ledger_.profit_total_;
  sp.repairs = ledger_.repairs_;
}

void AllocState::rollback() {
  CHECK_MSG(depth_ > 0, "rollback() without an open savepoint");
  Savepoint& sp = savepoints_[--depth_];
  // Every entry dirtied since save() belongs to the saved records, whose
  // pre-images were settled: clean flags and empty lists.
  for (ClientId i : ledger_.dirty_clients_) ledger_.client_dirty_[i] = false;
  ledger_.dirty_clients_.clear();
  for (ServerId j : ledger_.dirty_servers_) ledger_.server_dirty_[j] = false;
  ledger_.dirty_servers_.clear();
  ledger_.residual_.restore(sp.residual);
  // Swap rather than copy: the closed frame keeps the vectors for reuse.
  const std::vector<ServerId>& servers = cloud().cluster(sp.cluster).servers;
  for (std::size_t idx = 0; idx < servers.size(); ++idx) {
    std::swap(ledger_.hosted_[servers[idx]], sp.hosted[idx]);
    ledger_.cost_cache_[servers[idx]] = sp.costs[idx];
  }
  for (SavedClient& rec : sp.clients) {
    ledger_.cluster_of_[rec.id] = sp.cluster;
    std::swap(ledger_.placements_[rec.id], rec.placements);
    ledger_.revenue_cache_[rec.id] = rec.revenue;
  }
  ledger_.profit_total_ = sp.profit_total;
  ledger_.repairs_ = sp.repairs;
}

void AllocState::commit() {
  CHECK_MSG(depth_ > 0, "commit() without an open savepoint");
  --depth_;
}

void AllocState::check_saved(ClientId i) const {
  if (depth_ == 0) return;
  const std::vector<SavedClient>& clients = savepoints_[depth_ - 1].clients;
  const auto it = std::lower_bound(
      clients.begin(), clients.end(), i,
      [](const SavedClient& rec, ClientId id) { return rec.id < id; });
  CHECK_MSG(it != clients.end() && it->id == i,
            "mutation of a client outside the open savepoint's cluster");
}

AllocState::Checkpoint AllocState::checkpoint(double profit) const {
  Checkpoint ckpt;
  ckpt.cluster_of = ledger_.cluster_of_.raw();
  ckpt.placements = ledger_.placements_.raw();
  ckpt.profit = profit;
  return ckpt;
}

Allocation AllocState::materialize(const Checkpoint& ckpt) const {
  Allocation alloc(cloud());
  for (std::size_t ii = 0; ii < ckpt.placements.size(); ++ii) {
    if (ckpt.cluster_of[ii] == kNoCluster) continue;
    alloc.assign(ClientId{static_cast<int>(ii)}, ckpt.cluster_of[ii],
                 std::vector<Placement>(ckpt.placements[ii]));
  }
  return alloc;
}

bool AllocState::aggregates_consistent(double tol) const {
  const Cloud& cloud = ledger_.cloud();
  const auto num_servers = static_cast<std::size_t>(cloud.num_servers());
  std::vector<double> phi_p(num_servers, 0.0), phi_n(num_servers, 0.0),
      disk(num_servers, 0.0), load_p(num_servers, 0.0);
  std::vector<int> hosted(num_servers, 0);
  for (ClientId i : cloud.client_ids()) {
    if (!ledger_.is_assigned(i)) continue;
    const Client& c = cloud.client(i);
    for (const Placement& p : ledger_.placements(i)) {
      const auto jj = p.server.index();
      phi_p[jj] += p.phi_p;
      phi_n[jj] += p.phi_n;
      disk[jj] += c.disk;
      load_p[jj] += p.psi * c.lambda_pred * c.alpha_p;
      ++hosted[jj];
    }
  }
  // Recomputed sums vs incrementally-maintained aggregates: a relative
  // tolerance absorbs summation-order ulps (emptied servers are reset to
  // exactly 0.0 on both sides, so zero compares exactly). Hosted counts
  // compare exactly; a speculative remove_client/add_client left
  // unrestored shows up there.
  const auto close = [tol](double a, double b) {
    return std::abs(a - b) <=
           tol * std::max({1.0, std::abs(a), std::abs(b)});
  };
  const ResidualView& view = ledger_.residual_;
  for (ServerId j : cloud.server_ids()) {
    const auto jj = j.index();
    if (view.hosted_[j] != hosted[jj] ||
        static_cast<int>(ledger_.hosted_[j].size()) != hosted[jj])
      return false;
    if (!close(view.used_p_[j], phi_p[jj]) ||
        !close(view.used_n_[j], phi_n[jj]) ||
        !close(view.used_disk_[j], disk[jj]) ||
        !close(view.load_p_[j], load_p[jj]))
      return false;
  }
  return true;
}

void AllocState::check_invariants() const {
  CHECK_MSG(aggregates_consistent(),
            "AllocState aggregates diverged from a from-scratch "
            "recomputation");
}

void AllocState::corrupt_aggregate_for_test(ServerId j, double delta) {
  ledger_.residual_.used_p_[j] += delta;
}

}  // namespace cloudalloc::model
