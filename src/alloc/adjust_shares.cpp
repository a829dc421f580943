#include "alloc/adjust_shares.h"

#include <cmath>
#include <utility>
#include <vector>

#include "alloc/share_policy.h"
#include "common/check.h"
#include "common/mathutil.h"
#include "model/alloc_state.h"
#include "opt/kkt_shares.h"
#include "queueing/gps.h"

namespace cloudalloc::alloc {
namespace {

using model::AllocState;
using model::Allocation;
using model::Client;
using model::ClientId;
using model::Placement;
using model::ServerClass;
using model::ServerId;

/// Finds the index of client i's placement on server j.
std::size_t placement_index(const Allocation& alloc, ClientId i, ServerId j) {
  const auto& ps = alloc.placements(i);
  for (std::size_t idx = 0; idx < ps.size(); ++idx)
    if (ps[idx].server == j) return idx;
  CHECK_MSG(false, "client has no placement on server");
  return 0;
}

}  // namespace

double adjust_resource_shares(AllocState& state, ServerId j,
                              const AllocatorOptions& opts) {
  const auto& cloud = state.cloud();
  const Allocation& ledger = state.ledger();
  const ServerClass& sc = cloud.server_class_of(j);
  const std::vector<ClientId> clients = ledger.clients_on(j);  // copy
  if (clients.empty()) return 0.0;

  // Profit-affecting state before the move (only this server's clients and
  // this server's cost can change).
  const double before = state.profit();

  // Budgets exclude background reservations.
  const double budget_p =
      1.0 - cloud.server(j).background.phi_p;
  const double budget_n =
      1.0 - cloud.server(j).background.phi_n;

  const ShareSizing sizing = ShareSizing::from(cloud);
  std::vector<opt::ShareItem> items_p, items_n;
  items_p.reserve(clients.size());
  items_n.reserve(clients.size());
  for (ClientId i : clients) {
    const Client& c = cloud.client(i);
    const Placement& p =
        ledger.placements(i)[placement_index(ledger, i, j)];
    // Weight by the slope at the origin (the paper's linear form): using
    // the local slope would zero out clients currently past their
    // zero-crossing and make them unrecoverable.
    const double slope = cloud.utility_of(i).slope(0.0);
    const units::Time zc{cloud.utility_of(i).zero_crossing()};
    const double w = slope * c.lambda_agreed * p.psi;
    const units::ArrivalRate load{p.psi * c.lambda_pred};

    // Ceilings follow the share policy so rebalancing cannot freeze the
    // whole server at 100% and block future client moves.
    opt::ShareItem ip;
    ip.weight = w;
    ip.rate_factor = sc.cap_p / c.alpha_p;
    ip.load = load.value();
    ip.lo = queueing::gps_min_share(load, units::WorkRate{sc.cap_p},
                                    units::Work{c.alpha_p},
                                    units::ArrivalRate{opts.stability_headroom})
                .value();
    ip.hi = clamp(share_cap(load, p.psi, units::WorkRate{sc.cap_p},
                            units::Work{c.alpha_p}, zc, sizing.slack_work_p,
                            opts)
                      .value(),
                  ip.lo, budget_p);
    items_p.push_back(ip);

    opt::ShareItem in;
    in.weight = w;
    in.rate_factor = sc.cap_n / c.alpha_n;
    in.load = load.value();
    in.lo = queueing::gps_min_share(load, units::WorkRate{sc.cap_n},
                                    units::Work{c.alpha_n},
                                    units::ArrivalRate{opts.stability_headroom})
                .value();
    in.hi = clamp(share_cap(load, p.psi, units::WorkRate{sc.cap_n},
                            units::Work{c.alpha_n}, zc, sizing.slack_work_n,
                            opts)
                      .value(),
                  in.lo, budget_n);
    items_n.push_back(in);
  }

  const auto sol_p = opt::solve_shares(items_p, budget_p);
  const auto sol_n = opt::solve_shares(items_n, budget_n);
  if (!sol_p || !sol_n) return 0.0;  // floors do not fit; keep current shares

  // Apply unconditionally: this is the exact optimum of the linearized
  // convex subproblem under the policy ceilings. It may momentarily lower
  // clipped profit (shares shrink toward their caps), but the freed
  // capacity is what lets reassignment serve waiting clients — the outer
  // loop keeps the best allocation it has seen.
  for (std::size_t idx = 0; idx < clients.size(); ++idx) {
    const ClientId i = clients[idx];
    std::vector<Placement> ps = ledger.placements(i);
    Placement& mine = ps[placement_index(ledger, i, j)];
    mine.phi_p = sol_p->phi[idx];
    mine.phi_n = sol_n->phi[idx];
    state.assign(i, ledger.cluster_of(i), std::move(ps));
  }
  return state.profit() - before;
}

double adjust_all_shares(AllocState& state, const AllocatorOptions& opts) {
  double delta = 0.0;
  for (ServerId j : state.cloud().server_ids())
    if (state.ledger().active(j))
      delta += adjust_resource_shares(state, j, opts);
  return delta;
}

}  // namespace cloudalloc::alloc
