#include "alloc/delta_price.h"

#include <cmath>

#include "common/mathutil.h"
#include "model/allocation.h"

namespace cloudalloc::alloc {
namespace {

using model::Client;
using model::ClientId;
using model::Cloud;
using model::Placement;
using model::ResidualView;
using model::ServerClass;

/// client_revenue from the placements alone (GPS isolation: no view state
/// needed). Mirrors Allocation::response_time + model::client_revenue.
double revenue_of(const Cloud& cloud, ClientId i,
                  const std::vector<Placement>& ps) {
  if (ps.empty()) return 0.0;
  const double r = model::response_time_of(cloud, i, ps);
  if (!std::isfinite(r)) return 0.0;
  return cloud.client(i).lambda_agreed * cloud.utility_of(i).value(r);
}

/// model::server_cost's formula from raw ingredients.
double cost_of(const ServerClass& sc, bool active, double load_p) {
  if (!active) return 0.0;
  return sc.cost_fixed + sc.cost_per_util * clamp(load_p / sc.cap_p, 0.0, 1.0);
}

}  // namespace

double insertion_delta(const ResidualView& view, ClientId i,
                       const std::vector<Placement>& ps) {
  const Cloud& cloud = view.cloud();
  const Client& c = cloud.client(i);
  double delta = revenue_of(cloud, i, ps);
  for (const Placement& p : ps) {
    const ServerClass& sc = cloud.server_class_of(p.server);
    const double load_before = view.proc_load(p.server);
    const double before = cost_of(sc, view.active(p.server), load_before);
    // Matches ResidualView::add_client's load update.
    const double load_after = load_before + p.psi * c.lambda_pred * c.alpha_p;
    const double after = cost_of(sc, true, load_after);
    delta -= after - before;
  }
  return delta;
}

double removal_delta(const ResidualView& view, ClientId i,
                     const std::vector<Placement>& ps) {
  const Cloud& cloud = view.cloud();
  const Client& c = cloud.client(i);
  double delta = -revenue_of(cloud, i, ps);
  for (const Placement& p : ps) {
    const ServerClass& sc = cloud.server_class_of(p.server);
    const bool keeps = view.keeps_on(p.server);
    const int hosted = view.hosted_clients(p.server);
    const double load_before = view.proc_load(p.server);
    const double before = cost_of(sc, hosted > 0 || keeps, load_before);
    // Matches ResidualView::remove_client, including its reset-to-zero
    // guard when the server empties.
    const double load_after =
        hosted - 1 == 0 ? 0.0
                        : load_before - p.psi * c.lambda_pred * c.alpha_p;
    const double after = cost_of(sc, hosted - 1 > 0 || keeps, load_after);
    delta -= after - before;
  }
  return delta;
}

double replace_delta(ResidualView& view, ClientId i,
                     const std::vector<Placement>& old_ps,
                     const std::vector<Placement>& new_ps) {
  // delta = [profit(without i) - profit(old)] + [profit(new) - profit(without
  // i)]; pricing the insertion against the vacated view handles old/new
  // overlapping on a server.
  const double removal = removal_delta(view, i, old_ps);
  ResidualView::Undo undo;
  view.remove_client(i, old_ps, &undo);
  const double insertion = insertion_delta(view, i, new_ps);
  view.restore(undo);
  return removal + insertion;
}

}  // namespace cloudalloc::alloc
