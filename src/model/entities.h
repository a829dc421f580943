// Plain data records describing the cloud: server classes, servers,
// clusters, and clients. These carry no invariants beyond what Cloud
// validates at construction, so they are open structs (Core Guidelines
// C.2: use struct if members can vary independently).
#pragma once

#include <string>
#include <vector>

#include "model/types.h"

namespace cloudalloc::model {

/// A hardware class: capacities in normalized units and the operation
/// cost model  cost = P0 + P1 * processing_utilization  while ON.
struct ServerClass {
  ServerClassId id{0};
  std::string name;
  double cap_p = 1.0;        ///< processing capacity Cp
  double cap_n = 1.0;        ///< communication capacity Cn
  double cap_m = 1.0;        ///< local disk capacity Cm
  double cost_fixed = 0.0;   ///< P0, paid while the server is ON
  double cost_per_util = 0.0;///< P1, times processing utilization in [0,1]
};

/// Resources on a server already committed before this decision epoch
/// (e.g. clients carried over, or non-cloud workloads): they shrink the
/// capacity available to the allocator. `keeps_on` marks the server as
/// active regardless of new placements, so its fixed cost is sunk.
struct BackgroundLoad {
  double phi_p = 0.0;   ///< pre-committed processing share in [0,1]
  double phi_n = 0.0;   ///< pre-committed communication share in [0,1]
  double disk = 0.0;    ///< pre-committed disk (absolute units)
  bool keeps_on = false;
};

/// One physical machine, owned by exactly one cluster.
struct Server {
  ServerId id{0};
  ClusterId cluster = kNoCluster;
  ServerClassId server_class{0};
  BackgroundLoad background;
};

/// A cluster is a named set of servers behind one request dispatcher.
struct Cluster {
  ClusterId id{0};
  std::string name;
  std::vector<ServerId> servers;
};

/// An application (client) with its SLA contract and demand profile.
struct Client {
  ClientId id{0};
  UtilityClassId utility_class{0};
  double lambda_pred = 1.0;    ///< predicted arrival rate, drives allocation
  double lambda_agreed = 1.0;  ///< contractual arrival rate, drives revenue
  double alpha_p = 1.0;        ///< mean processing work per request
  double alpha_n = 1.0;        ///< mean communication work per request
  double disk = 0.0;           ///< constant disk requirement m_i per server hosting it
};

}  // namespace cloudalloc::model
