// Immutable description of one decision epoch's optimization instance:
// topology (clusters, servers, server classes), client population, and
// utility classes. Validated once at construction; the allocator and
// evaluators then index into it freely.
#pragma once

#include <memory>
#include <vector>

#include "model/entities.h"
#include "model/utility.h"

namespace cloudalloc::model {

class Cloud {
 public:
  /// Validates cross-references (every server's cluster/class exists, ids
  /// are dense and match vector positions, parameters are in-domain) and
  /// aborts via CHECK on programmer error.
  Cloud(std::vector<ServerClass> server_classes, std::vector<Server> servers,
        std::vector<Cluster> clusters, std::vector<UtilityClass> utility_classes,
        std::vector<Client> clients);

  const std::vector<ServerClass>& server_classes() const {
    return server_classes_;
  }
  const std::vector<Server>& servers() const { return servers_; }
  const std::vector<Cluster>& clusters() const { return clusters_; }
  const std::vector<UtilityClass>& utility_classes() const {
    return utility_classes_;
  }
  const std::vector<Client>& clients() const { return clients_; }

  int num_clients() const { return static_cast<int>(clients_.size()); }
  int num_servers() const { return static_cast<int>(servers_.size()); }
  int num_clusters() const { return static_cast<int>(clusters_.size()); }

  /// Typed id ranges for loops over the populations:
  /// `for (ClientId i : cloud.client_ids())`.
  IdRange<ClientId> client_ids() const {
    return id_range<ClientId>(clients_.size());
  }
  IdRange<ServerId> server_ids() const {
    return id_range<ServerId>(servers_.size());
  }
  IdRange<ClusterId> cluster_ids() const {
    return id_range<ClusterId>(clusters_.size());
  }
  IdRange<ServerClassId> server_class_ids() const {
    return id_range<ServerClassId>(server_classes_.size());
  }
  IdRange<UtilityClassId> utility_class_ids() const {
    return id_range<UtilityClassId>(utility_classes_.size());
  }

  /// Online-serving hook: rewrites client i's predicted arrival rate in
  /// place (the demand-drift dimension of a churn stream) and keeps the
  /// total_demand aggregates in sync. The contract is allocation-state
  /// safety, not immutability: the client must be UNASSIGNED in every live
  /// Allocation / ResidualView over this cloud when the rate changes —
  /// their per-server load aggregates bake in lambda_pred at assign time
  /// and would silently go stale otherwise. The serving layer's
  /// remove -> set_lambda_pred -> re-insert sequence honors this.
  /// `lambda` must be finite and > 0. lambda_agreed stays contractual.
  void set_lambda_pred(ClientId i, double lambda);

  const Client& client(ClientId i) const;
  const Server& server(ServerId j) const;
  const Cluster& cluster(ClusterId k) const;
  const ServerClass& server_class_of(ServerId j) const;

  /// Every server's class as one dense array, indexed by
  /// ServerId::index() — servers()[j].server_class without the stride of
  /// a Server, for scans that read one class per server (the candidate
  /// screen of model/residual.h).
  const std::vector<ServerClassId>& class_index() const {
    return class_index_;
  }
  const UtilityFunction& utility_of(ClientId i) const;

  /// Total processing capacity across all servers (background excluded).
  double total_cap_p() const { return total_cap_p_; }
  double total_cap_n() const { return total_cap_n_; }
  /// Sum of predicted demand lambda_pred * alpha over clients, per resource.
  double total_demand_p() const { return total_demand_p_; }
  double total_demand_n() const { return total_demand_n_; }

 private:
  std::vector<ServerClass> server_classes_;
  std::vector<Server> servers_;
  std::vector<Cluster> clusters_;
  std::vector<UtilityClass> utility_classes_;
  std::vector<Client> clients_;
  std::vector<ServerClassId> class_index_;
  double total_cap_p_ = 0.0;
  double total_cap_n_ = 0.0;
  double total_demand_p_ = 0.0;
  double total_demand_n_ = 0.0;
};

}  // namespace cloudalloc::model
