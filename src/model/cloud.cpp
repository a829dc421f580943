#include "model/cloud.h"

#include <cmath>
#include <set>

#include "common/check.h"

namespace cloudalloc::model {

Cloud::Cloud(std::vector<ServerClass> server_classes,
             std::vector<Server> servers, std::vector<Cluster> clusters,
             std::vector<UtilityClass> utility_classes,
             std::vector<Client> clients)
    : server_classes_(std::move(server_classes)),
      servers_(std::move(servers)),
      clusters_(std::move(clusters)),
      utility_classes_(std::move(utility_classes)),
      clients_(std::move(clients)) {
  for (std::size_t s = 0; s < server_classes_.size(); ++s) {
    const ServerClass& sc = server_classes_[s];
    CHECK_MSG(sc.id == ServerClassId{static_cast<int>(s)}, "dense server-class ids");
    CHECK(sc.cap_p > 0.0);
    CHECK(sc.cap_n > 0.0);
    CHECK(sc.cap_m >= 0.0);
    CHECK(sc.cost_fixed >= 0.0);
    CHECK(sc.cost_per_util >= 0.0);
  }
  for (std::size_t u = 0; u < utility_classes_.size(); ++u) {
    CHECK_MSG(utility_classes_[u].id == UtilityClassId{static_cast<int>(u)},
              "dense utility-class ids");
    CHECK_MSG(utility_classes_[u].fn != nullptr, "utility class needs a fn");
  }
  std::set<ServerId> seen_servers;
  for (std::size_t k = 0; k < clusters_.size(); ++k) {
    const Cluster& cl = clusters_[k];
    CHECK_MSG(cl.id == ClusterId{static_cast<int>(k)}, "dense cluster ids");
    for (ServerId j : cl.servers) {
      CHECK(j.valid() && j.value() < num_servers());
      CHECK_MSG(seen_servers.insert(j).second,
                "a server belongs to exactly one cluster");
      CHECK_MSG(servers_[j.index()].cluster == cl.id,
                "server.cluster must match owning cluster");
    }
  }
  for (std::size_t j = 0; j < servers_.size(); ++j) {
    const Server& sv = servers_[j];
    CHECK_MSG(sv.id == ServerId{static_cast<int>(j)}, "dense server ids");
    CHECK(sv.server_class.valid() &&
          sv.server_class.index() < server_classes_.size());
    CHECK_MSG(seen_servers.count(sv.id) == 1,
              "every server must be listed in its cluster");
    CHECK(sv.background.phi_p >= 0.0 && sv.background.phi_p <= 1.0);
    CHECK(sv.background.phi_n >= 0.0 && sv.background.phi_n <= 1.0);
    CHECK(sv.background.disk >= 0.0);
    class_index_.push_back(sv.server_class);
  }
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const Client& c = clients_[i];
    CHECK_MSG(c.id == ClientId{static_cast<int>(i)}, "dense client ids");
    CHECK(c.utility_class.valid() &&
          c.utility_class.index() < utility_classes_.size());
    CHECK(c.lambda_pred > 0.0);
    CHECK(c.lambda_agreed > 0.0);
    CHECK(c.alpha_p > 0.0);
    CHECK(c.alpha_n > 0.0);
    CHECK(c.disk >= 0.0);
  }
  for (const Server& sv : servers_) {
    const ServerClass& sc =
        server_classes_[sv.server_class.index()];
    total_cap_p_ += sc.cap_p;
    total_cap_n_ += sc.cap_n;
  }
  for (const Client& c : clients_) {
    total_demand_p_ += c.lambda_pred * c.alpha_p;
    total_demand_n_ += c.lambda_pred * c.alpha_n;
  }
}

void Cloud::set_lambda_pred(ClientId i, double lambda) {
  CHECK(i.valid() && i.value() < num_clients());
  CHECK_MSG(std::isfinite(lambda) && lambda > 0.0,
            "predicted rates must be finite and positive");
  Client& c = clients_[i.index()];
  total_demand_p_ += (lambda - c.lambda_pred) * c.alpha_p;
  total_demand_n_ += (lambda - c.lambda_pred) * c.alpha_n;
  c.lambda_pred = lambda;
}

const Client& Cloud::client(ClientId i) const {
  CHECK(i.valid() && i.value() < num_clients());
  return clients_[i.index()];
}

const Server& Cloud::server(ServerId j) const {
  CHECK(j.valid() && j.value() < num_servers());
  return servers_[j.index()];
}

const Cluster& Cloud::cluster(ClusterId k) const {
  CHECK(k.valid() && k.value() < num_clusters());
  return clusters_[k.index()];
}

const ServerClass& Cloud::server_class_of(ServerId j) const {
  return server_classes_[server(j).server_class.index()];
}

const UtilityFunction& Cloud::utility_of(ClientId i) const {
  return *utility_classes_[client(i).utility_class.index()].fn;
}

}  // namespace cloudalloc::model
