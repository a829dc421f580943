#include "alloc/adjust_dispersion.h"

#include <cmath>
#include <vector>

#include "alloc/delta_price.h"
#include "common/check.h"
#include "common/mathutil.h"
#include "model/alloc_state.h"
#include "opt/dispersion.h"
#include "queueing/gps.h"

namespace cloudalloc::alloc {
namespace {

using model::AllocState;
using model::Allocation;
using model::Client;
using model::ClientId;
using model::Placement;

/// psi below this after re-optimization drops the slice entirely.
constexpr double kDropThreshold = 1e-4;

}  // namespace

double adjust_dispersion_rates(AllocState& state, ClientId i,
                               const AllocatorOptions& opts) {
  const Allocation& ledger = state.ledger();
  if (!ledger.is_assigned(i)) return 0.0;
  const auto& cloud = state.cloud();
  const Client& c = cloud.client(i);
  const std::vector<Placement> current = ledger.placements(i);
  if (current.size() < 2) return 0.0;  // nothing to re-split

  const double before = state.profit();
  const double r_now = ledger.response_time(i);
  const double slope = std::isfinite(r_now) ? cloud.utility_of(i).slope(r_now)
                                            : cloud.utility_of(i).slope(0.0);
  const double delay_weight = slope * c.lambda_agreed;

  std::vector<opt::DispersionItem> items;
  items.reserve(current.size());
  for (const Placement& p : current) {
    const auto& sc = cloud.server_class_of(p.server);
    opt::DispersionItem it;
    it.mu_p = queueing::gps_service_rate(units::Share{p.phi_p},
                                         units::WorkRate{sc.cap_p},
                                         units::Work{c.alpha_p})
                  .value();
    it.mu_n = queueing::gps_service_rate(units::Share{p.phi_n},
                                         units::WorkRate{sc.cap_n},
                                         units::Work{c.alpha_n})
                  .value();
    it.lin_cost = sc.cost_per_util * c.lambda_pred * c.alpha_p / sc.cap_p;
    // Stability cap with headroom, against the slower stage.
    const double mu_min = std::min(it.mu_p, it.mu_n);
    it.cap = clamp((mu_min - opts.stability_headroom) / c.lambda_pred, 0.0,
                   1.0);
    items.push_back(it);
  }

  const auto sol = opt::solve_dispersion(items, c.lambda_pred, delay_weight);
  if (!sol) return 0.0;

  std::vector<Placement> next;
  double psi_sum = 0.0;
  for (std::size_t idx = 0; idx < current.size(); ++idx) {
    if (sol->psi[idx] < kDropThreshold) continue;
    Placement p = current[idx];
    p.psi = sol->psi[idx];
    psi_sum += p.psi;
    next.push_back(p);
  }
  if (next.empty() || !near(psi_sum, 1.0, 1e-3)) return 0.0;
  // Renormalize the rounding left by dropped slices.
  for (Placement& p : next) p.psi /= psi_sum;

  // A re-split redirects psi between the client's servers — under
  // migration pricing the improvement must cover the redirected traffic.
  const double penalty = migration_penalty(opts, current, next);
  state.assign(i, ledger.cluster_of(i), next);
  const double after = state.profit();
  if (after + 1e-12 < before + penalty) {
    state.assign(i, ledger.cluster_of(i), current);
    return 0.0;
  }
  return after - before;
}

double adjust_all_dispersions(AllocState& state, const AllocatorOptions& opts) {
  double delta = 0.0;
  for (ClientId i : state.cloud().client_ids())
    delta += adjust_dispersion_rates(state, i, opts);
  return delta;
}

}  // namespace cloudalloc::alloc
