#include "model/allocation.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/check.h"
#include "common/mathutil.h"
#include "model/evaluator.h"

namespace cloudalloc::model {

Allocation::Allocation(const Cloud& cloud)
    : cloud_(&cloud),
      cluster_of_(static_cast<std::size_t>(cloud.num_clients()), kNoCluster),
      placements_(static_cast<std::size_t>(cloud.num_clients())),
      server_(static_cast<std::size_t>(cloud.num_servers())),
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

void Allocation::assign(ClientId i, ClusterId k, std::vector<Placement> ps) {
  CHECK(i.valid() && i.value() < cloud_->num_clients());
  CHECK(k.valid() && k.value() < cloud_->num_clusters());
  CHECK_MSG(!ps.empty(), "assign needs at least one placement");
  double psi_sum = 0.0;
  std::set<ServerId> seen;
  for (const Placement& p : ps) {
    CHECK(p.server.valid() && p.server.value() < cloud_->num_servers());
    CHECK_MSG(cloud_->server(p.server).cluster == k,
              "placement must stay in the assigned cluster");
    CHECK_MSG(seen.insert(p.server).second, "one placement per server");
    CHECK_MSG(p.psi > 0.0 && p.psi <= 1.0 + kEps, "psi in (0,1]");
    CHECK(p.phi_p >= 0.0 && p.phi_n >= 0.0);
    psi_sum += p.psi;
  }
  CHECK_MSG(near(psi_sum, 1.0, 1e-6), "psi must sum to 1 over the cluster");

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
  const Client& c = cloud_->client(i);
  mark_client_dirty(i);
  for (const Placement& p : placements_[i]) {
    mark_server_dirty(p.server);
  }
  for (const Placement& p : placements_[i]) {
    ServerAgg& agg = server_[p.server];
    agg.phi_p -= p.phi_p;
    agg.phi_n -= p.phi_n;
    agg.disk -= c.disk;
    agg.load_p -= p.psi * c.lambda_pred * c.alpha_p;
    auto it = std::find(agg.clients.begin(), agg.clients.end(), i);
    CHECK(it != agg.clients.end());
    *it = agg.clients.back();
    agg.clients.pop_back();
    // Guard drift from repeated add/remove cycles.
    if (agg.clients.empty()) {
      agg.phi_p = agg.phi_n = agg.disk = agg.load_p = 0.0;
    }
  }
}

void Allocation::add_footprint(ClientId i) {
  const Client& c = cloud_->client(i);
  mark_client_dirty(i);
  for (const Placement& p : placements_[i]) {
    mark_server_dirty(p.server);
    ServerAgg& agg = server_[p.server];
    agg.phi_p += p.phi_p;
    agg.phi_n += p.phi_n;
    agg.disk += c.disk;
    agg.load_p += p.psi * c.lambda_pred * c.alpha_p;
    agg.clients.push_back(i);
  }
}

double Allocation::response_time(ClientId i) const {
  if (!is_assigned(i)) return std::numeric_limits<double>::infinity();
  const Client& c = cloud_->client(i);
  std::vector<queueing::ServerSlice> slices;
  slices.reserve(placements(i).size());
  for (const Placement& p : placements(i)) {
    const ServerClass& sc = cloud_->server_class_of(p.server);
    slices.push_back(queueing::ServerSlice{
        p.psi, units::Share{p.phi_p}, units::Share{p.phi_n},
        units::WorkRate{sc.cap_p}, units::WorkRate{sc.cap_n}});
  }
  return queueing::client_response_time(slices, units::ArrivalRate{c.lambda_pred},
                                        units::Work{c.alpha_p},
                                        units::Work{c.alpha_n})
      .value();
}

double Allocation::used_phi_p(ServerId j) const {
  CHECK(j.valid() && j.value() < cloud_->num_servers());
  return server_[j].phi_p +
         cloud_->server(j).background.phi_p;
}

double Allocation::used_phi_n(ServerId j) const {
  CHECK(j.valid() && j.value() < cloud_->num_servers());
  return server_[j].phi_n +
         cloud_->server(j).background.phi_n;
}

double Allocation::used_disk(ServerId j) const {
  CHECK(j.valid() && j.value() < cloud_->num_servers());
  return server_[j].disk +
         cloud_->server(j).background.disk;
}

double Allocation::free_disk(ServerId j) const {
  return cloud_->server_class_of(j).cap_m - used_disk(j);
}

double Allocation::proc_load(ServerId j) const {
  CHECK(j.valid() && j.value() < cloud_->num_servers());
  return server_[j].load_p;
}

double Allocation::proc_utilization(ServerId j) const {
  const double cap = cloud_->server_class_of(j).cap_p;
  return clamp(proc_load(j) / cap, 0.0, 1.0);
}

bool Allocation::active(ServerId j) const {
  CHECK(j.valid() && j.value() < cloud_->num_servers());
  return !server_[j].clients.empty() ||
         cloud_->server(j).background.keeps_on;
}

const std::vector<ClientId>& Allocation::clients_on(ServerId j) const {
  CHECK(j.valid() && j.value() < cloud_->num_servers());
  return server_[j].clients;
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
    out.insert(out.end(), server_[j].clients.begin(), server_[j].clients.end());
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

}  // namespace cloudalloc::model
