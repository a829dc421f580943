#include "model/allocation.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/mathutil.h"
#include "model/evaluator.h"

namespace cloudalloc::model {

Allocation::Allocation(const Cloud& cloud)
    : cloud_(&cloud),
      cluster_of_(static_cast<std::size_t>(cloud.num_clients()), kNoCluster),
      placements_(static_cast<std::size_t>(cloud.num_clients())),
      residual_(cloud),
      hosted_(static_cast<std::size_t>(cloud.num_servers())),
      revenue_cache_(static_cast<std::size_t>(cloud.num_clients()), 0.0),
      cost_cache_(static_cast<std::size_t>(cloud.num_servers()), 0.0),
      client_dirty_(static_cast<std::size_t>(cloud.num_clients()), false),
      server_dirty_(static_cast<std::size_t>(cloud.num_servers()), false) {
  // Empty clients earn 0 (cached correctly already); background-pinned
  // servers cost even when empty, so start those dirty.
  for (ServerId j : cloud.server_ids())
    if (cloud.server(j).background.keeps_on) mark_server_dirty(j);
}

bool Allocation::is_assigned(ClientId i) const {
  return cluster_of(i) != kNoCluster;
}

ClusterId Allocation::cluster_of(ClientId i) const {
  CHECK(i.valid() && i.value() < cloud_->num_clients());
  return cluster_of_[i];
}

const std::vector<Placement>& Allocation::placements(ClientId i) const {
  CHECK(i.valid() && i.value() < cloud_->num_clients());
  return placements_[i];
}

const char* assign_violation(const Cloud& cloud, ClientId i, ClusterId k,
                             const std::vector<Placement>& ps) {
  if (!i.valid() || i.value() >= cloud.num_clients())
    return "client id out of range";
  if (!k.valid() || k.value() >= cloud.num_clusters())
    return "cluster id out of range";
  if (ps.empty()) return "assign needs at least one placement";
  double psi_sum = 0.0;
  for (std::size_t s = 0; s < ps.size(); ++s) {
    const Placement& p = ps[s];
    if (!p.server.valid() || p.server.value() >= cloud.num_servers())
      return "server id out of range";
    if (cloud.server(p.server).cluster != k)
      return "placement must stay in the assigned cluster";
    for (std::size_t t = 0; t < s; ++t)
      if (ps[t].server == p.server) return "one placement per server";
    if (!(p.psi > 0.0 && p.psi <= 1.0 + kEps)) return "psi in (0,1]";
    if (!(p.phi_p >= 0.0 && p.phi_n >= 0.0)) return "shares must be >= 0";
    psi_sum += p.psi;
  }
  if (!near(psi_sum, 1.0, 1e-6)) return "psi must sum to 1 over the cluster";
  return nullptr;
}

void Allocation::assign(ClientId i, ClusterId k, std::vector<Placement> ps) {
  const char* violation = assign_violation(*cloud_, i, k, ps);
  CHECK_MSG(violation == nullptr, violation);

  remove_footprint(i);
  cluster_of_[i] = k;
  placements_[i] = std::move(ps);
  add_footprint(i);
}

void Allocation::clear(ClientId i) {
  CHECK(i.valid() && i.value() < cloud_->num_clients());
  remove_footprint(i);
  cluster_of_[i] = kNoCluster;
  placements_[i].clear();
}

void Allocation::mark_client_dirty(ClientId i) {
  if (client_dirty_[i]) return;
  client_dirty_[i] = true;
  dirty_clients_.push_back(i);
}

void Allocation::mark_server_dirty(ServerId j) {
  if (server_dirty_[j]) return;
  server_dirty_[j] = true;
  dirty_servers_.push_back(j);
}

void Allocation::remove_footprint(ClientId i) {
  mark_client_dirty(i);
  for (const Placement& p : placements_[i]) {
    mark_server_dirty(p.server);
    std::vector<ClientId>& hosted = hosted_[p.server];
    auto it = std::find(hosted.begin(), hosted.end(), i);
    CHECK(it != hosted.end());
    *it = hosted.back();
    hosted.pop_back();
  }
  residual_.remove_client(i, placements_[i]);
}

void Allocation::add_footprint(ClientId i) {
  mark_client_dirty(i);
  for (const Placement& p : placements_[i]) {
    mark_server_dirty(p.server);
    hosted_[p.server].push_back(i);
  }
  residual_.add_client(i, placements_[i]);
}

double Allocation::response_time(ClientId i) const {
  if (!is_assigned(i)) return std::numeric_limits<double>::infinity();
  return response_time_of(*cloud_, i, placements(i));
}

double Allocation::used_phi_p(ServerId j) const {
  CHECK(j.valid() && j.value() < cloud_->num_servers());
  return residual_.used_phi_p(j);
}

double Allocation::used_phi_n(ServerId j) const {
  CHECK(j.valid() && j.value() < cloud_->num_servers());
  return residual_.used_phi_n(j);
}

double Allocation::used_disk(ServerId j) const {
  CHECK(j.valid() && j.value() < cloud_->num_servers());
  return residual_.used_disk(j);
}

double Allocation::free_disk(ServerId j) const {
  CHECK(j.valid() && j.value() < cloud_->num_servers());
  return residual_.free_disk(j);
}

double Allocation::proc_load(ServerId j) const {
  CHECK(j.valid() && j.value() < cloud_->num_servers());
  return residual_.proc_load(j);
}

double Allocation::proc_utilization(ServerId j) const {
  const double cap = cloud_->server_class_of(j).cap_p;
  return clamp(proc_load(j) / cap, 0.0, 1.0);
}

bool Allocation::active(ServerId j) const {
  CHECK(j.valid() && j.value() < cloud_->num_servers());
  return residual_.active(j);
}

const std::vector<ClientId>& Allocation::clients_on(ServerId j) const {
  CHECK(j.valid() && j.value() < cloud_->num_servers());
  return hosted_[j];
}

double Allocation::cached_profit() const {
  for (ClientId i : dirty_clients_) {
    const double fresh = client_revenue(*this, i);
    profit_total_ += fresh - revenue_cache_[i];
    revenue_cache_[i] = fresh;
    client_dirty_[i] = false;
  }
  repairs_ += dirty_clients_.size();
  dirty_clients_.clear();
  for (ServerId j : dirty_servers_) {
    const double fresh = server_cost(*this, j);
    profit_total_ -= fresh - cost_cache_[j];
    cost_cache_[j] = fresh;
    server_dirty_[j] = false;
  }
  repairs_ += dirty_servers_.size();
  dirty_servers_.clear();
  // The running total accumulates one rounding error per repair; rebase
  // from the (exact) caches periodically so drift cannot build up into
  // the local search's improvement epsilons.
  if (repairs_ >= 4096) {
    repairs_ = 0;
    double total = 0.0;
    for (double r : revenue_cache_) total += r;
    for (double cost : cost_cache_) total -= cost;
    profit_total_ = total;
  }
  return profit_total_;
}

std::vector<ClientId> Allocation::clients_in(ClusterId k) const {
  CHECK(k.valid() && k.value() < cloud_->num_clusters());
  std::vector<ClientId> out;
  for (ServerId j : cloud_->cluster(k).servers)
    out.insert(out.end(), hosted_[j].begin(), hosted_[j].end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int Allocation::num_active_servers() const {
  int n = 0;
  for (ServerId j : cloud_->server_ids())
    if (active(j)) ++n;
  return n;
}

double response_time_of(const Cloud& cloud, ClientId i,
                        const std::vector<Placement>& ps) {
  const Client& c = cloud.client(i);
  const units::ArrivalRate lambda{c.lambda_pred};
  const units::Work alpha_p{c.alpha_p};
  const units::Work alpha_n{c.alpha_n};
  units::Time r{0.0};
  for (const Placement& p : ps) {
    if (p.psi <= 0.0) continue;
    const ServerClass& sc = cloud.server_class_of(p.server);
    const units::Time t = queueing::slice_response_time(
        queueing::ServerSlice{p.psi, units::Share{p.phi_p},
                              units::Share{p.phi_n}, units::WorkRate{sc.cap_p},
                              units::WorkRate{sc.cap_n}},
        lambda, alpha_p, alpha_n);
    if (t.value() == std::numeric_limits<double>::infinity())
      return std::numeric_limits<double>::infinity();
    r += p.psi * t;
  }
  return r.value();
}

}  // namespace cloudalloc::model
