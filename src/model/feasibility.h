// Constraint checking for allocations, mirroring constraints (3)-(12) of
// the paper. The allocator guarantees feasibility by construction; this
// module provides the independent audit used by tests, the property
// suites, and the examples' final reports.
#pragma once

#include <string>
#include <vector>

#include "model/allocation.h"

namespace cloudalloc::model {

enum class ViolationKind {
  kShareOverflowP,    ///< sum of phi_p on a server exceeds 1      (eq. 4)
  kShareOverflowN,    ///< sum of phi_n on a server exceeds 1      (eq. 5)
  kDiskOverflow,      ///< disk packed on a server exceeds Cm      (eq. 8)
  kPsiNotOne,         ///< client's psi over its cluster not 1     (eq. 6)
  kCrossCluster,      ///< placement outside the assigned cluster  (eq. 6)
  kUnstableQueue,     ///< some slice has arrivals >= service rate (eq. 7)
  kNegativeVariable,  ///< psi/phi below 0                         (eq. 12)
};

struct Violation {
  ViolationKind kind;
  ClientId client = kNoClient;  ///< involved client, if any
  ServerId server = kNoServer;  ///< involved server, if any
  double magnitude = 0.0;       ///< how far past the bound
  std::string describe() const;
};

/// Eq. (7) on one slice: client i's arrivals on p.server, psi *
/// lambda_pred at the client's current predicted rate, against each
/// stage's GPS service rate. A stage is stable when queueing::mm1_stable
/// holds; its slack is the service rate minus the arrivals.
/// check_feasibility reports every unstable stage, and the serving layer
/// keeps a client's placements across a rate change only while stable().
struct SliceStability {
  bool stable_p = false;
  bool stable_n = false;
  double slack_p = 0.0;
  double slack_n = 0.0;
  bool stable() const { return stable_p && stable_n; }
};

SliceStability slice_stability(const Cloud& cloud, ClientId i,
                               const Placement& p);

/// Audits the allocation against all model constraints; empty means
/// feasible. `tol` absorbs floating-point slack.
std::vector<Violation> check_feasibility(const Allocation& alloc,
                                         double tol = 1e-6);

/// Convenience for tests.
bool is_feasible(const Allocation& alloc, double tol = 1e-6);

}  // namespace cloudalloc::model
