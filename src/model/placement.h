// One client's slice on one server: the unit of an Allocation's
// placements and of the footprints a ResidualView adds and removes.
#pragma once

#include "model/types.h"

namespace cloudalloc::model {

/// One client's slice on one server.
struct Placement {
  ServerId server = kNoServer;
  double psi = 0.0;    ///< fraction of the client's requests sent to `server`
  double phi_p = 0.0;  ///< GPS share of the server's processing capacity
  double phi_n = 0.0;  ///< GPS share of the server's communication capacity
};

}  // namespace cloudalloc::model
