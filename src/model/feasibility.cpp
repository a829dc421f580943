#include "model/feasibility.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "queueing/gps.h"
#include "queueing/mm1.h"

namespace cloudalloc::model {

std::string Violation::describe() const {
  std::ostringstream os;
  switch (kind) {
    case ViolationKind::kShareOverflowP:
      os << "processing shares on server " << server.value() << " exceed 1 by "
         << magnitude;
      break;
    case ViolationKind::kShareOverflowN:
      os << "communication shares on server " << server.value() << " exceed 1 by "
         << magnitude;
      break;
    case ViolationKind::kDiskOverflow:
      os << "disk on server " << server.value() << " exceeds capacity by "
         << magnitude;
      break;
    case ViolationKind::kPsiNotOne:
      os << "client " << client.value() << " psi sums to 1" << (magnitude >= 0 ? "+" : "")
         << magnitude;
      break;
    case ViolationKind::kCrossCluster:
      os << "client " << client.value() << " has a placement on server " << server.value()
         << " outside its cluster";
      break;
    case ViolationKind::kUnstableQueue:
      os << "client " << client.value() << " on server " << server.value()
         << " has an unstable queue (slack " << magnitude << ")";
      break;
    case ViolationKind::kNegativeVariable:
      os << "client " << client.value() << " on server " << server.value()
         << " has a negative variable " << magnitude;
      break;
  }
  return os.str();
}

SliceStability slice_stability(const Cloud& cloud, ClientId i,
                               const Placement& p) {
  const Client& c = cloud.client(i);
  const ServerClass& sc = cloud.server_class_of(p.server);
  const units::ArrivalRate arrivals =
      p.psi * units::ArrivalRate{c.lambda_pred};
  const units::ArrivalRate mu_p = queueing::gps_service_rate(
      units::Share{p.phi_p}, units::WorkRate{sc.cap_p},
      units::Work{c.alpha_p});
  const units::ArrivalRate mu_n = queueing::gps_service_rate(
      units::Share{p.phi_n}, units::WorkRate{sc.cap_n},
      units::Work{c.alpha_n});
  return SliceStability{queueing::mm1_stable(arrivals, mu_p),
                        queueing::mm1_stable(arrivals, mu_n),
                        (mu_p - arrivals).value(), (mu_n - arrivals).value()};
}

std::vector<Violation> check_feasibility(const Allocation& alloc, double tol) {
  const Cloud& cloud = alloc.cloud();
  std::vector<Violation> out;

  for (ServerId j : cloud.server_ids()) {
    const double over_p = alloc.used_phi_p(j) - 1.0;
    if (over_p > tol)
      out.push_back({ViolationKind::kShareOverflowP, kNoClient, j, over_p});
    const double over_n = alloc.used_phi_n(j) - 1.0;
    if (over_n > tol)
      out.push_back({ViolationKind::kShareOverflowN, kNoClient, j, over_n});
    const double over_m = alloc.used_disk(j) - cloud.server_class_of(j).cap_m;
    if (over_m > tol)
      out.push_back({ViolationKind::kDiskOverflow, kNoClient, j, over_m});
  }

  for (ClientId i : cloud.client_ids()) {
    if (!alloc.is_assigned(i)) continue;
    const ClusterId k = alloc.cluster_of(i);
    double psi_sum = 0.0;
    for (const Placement& p : alloc.placements(i)) {
      psi_sum += p.psi;
      if (cloud.server(p.server).cluster != k)
        out.push_back({ViolationKind::kCrossCluster, i, p.server, 0.0});
      if (p.psi < -tol || p.phi_p < -tol || p.phi_n < -tol)
        out.push_back({ViolationKind::kNegativeVariable, i, p.server,
                       std::min({p.psi, p.phi_p, p.phi_n})});
      const SliceStability st = slice_stability(cloud, i, p);
      if (!st.stable_p)
        out.push_back({ViolationKind::kUnstableQueue, i, p.server, st.slack_p});
      if (!st.stable_n)
        out.push_back({ViolationKind::kUnstableQueue, i, p.server, st.slack_n});
    }
    if (std::fabs(psi_sum - 1.0) > tol)
      out.push_back({ViolationKind::kPsiNotOne, i, kNoServer, psi_sum - 1.0});
  }
  return out;
}

bool is_feasible(const Allocation& alloc, double tol) {
  return check_feasibility(alloc, tol).empty();
}

}  // namespace cloudalloc::model
