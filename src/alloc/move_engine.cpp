#include "alloc/move_engine.h"

#include <vector>

#include "alloc/delta_price.h"

namespace cloudalloc::alloc {

using model::ClientId;
using model::ClusterId;
using model::Placement;

MoveEngine::Proposal MoveEngine::propose_best(
    ClientId i, const InsertionConstraints& constraints) {
  Proposal prop;
  model::ResidualView& view = state_.view();
  if (state_.ledger().is_assigned(i)) {
    const std::vector<Placement>& old_ps = state_.ledger().placements(i);
    const double vacate = removal_delta(view, i, old_ps);
    view.remove_client(i, old_ps, &undo_);
    prop.plan = best_insertion(view, i, opts_, constraints);
    if (prop.plan)
      prop.predicted = vacate + insertion_delta(view, i, prop.plan->placements) -
                       migration_penalty(opts_, old_ps, prop.plan->placements);
    view.restore(undo_);
  } else {
    prop.plan = best_insertion(view, i, opts_, constraints);
    if (prop.plan)
      prop.predicted = insertion_delta(view, i, prop.plan->placements);
  }
  return prop;
}

MoveEngine::Proposal MoveEngine::propose_into(
    ClientId i, ClusterId k, const InsertionConstraints& constraints) {
  Proposal prop;
  model::ResidualView& view = state_.view();
  if (state_.ledger().is_assigned(i)) {
    const std::vector<Placement>& old_ps = state_.ledger().placements(i);
    const double vacate = removal_delta(view, i, old_ps);
    view.remove_client(i, old_ps, &undo_);
    prop.plan = assign_distribute(view, i, k, opts_, constraints);
    if (prop.plan)
      prop.predicted = vacate + insertion_delta(view, i, prop.plan->placements) -
                       migration_penalty(opts_, old_ps, prop.plan->placements);
    view.restore(undo_);
  } else {
    prop.plan = assign_distribute(view, i, k, opts_, constraints);
    if (prop.plan)
      prop.predicted = insertion_delta(view, i, prop.plan->placements);
  }
  return prop;
}

bool MoveEngine::fits(ClientId i, const InsertionPlan& plan) const {
  constexpr double kSlack = 1e-9;
  const model::ResidualView& view = state_.view();
  const double disk = state_.cloud().client(i).disk;
  for (const Placement& p : plan.placements) {
    if (p.phi_p > view.free_phi_p(p.server) + kSlack) return false;
    if (p.phi_n > view.free_phi_n(p.server) + kSlack) return false;
    if (disk > view.free_disk(p.server) + kSlack) return false;
  }
  return true;
}

bool MoveEngine::commit(ClientId i, bool was_assigned,
                        const InsertionPlan& plan, double& profit_now,
                        double& delta) {
  const ClusterId old_cluster =
      was_assigned ? state_.ledger().cluster_of(i) : model::kNoCluster;
  std::vector<Placement> old_placements;  // materialized only here, once a
  if (was_assigned) {                     // move is attempted
    old_placements = state_.ledger().placements(i);
    state_.clear(i);
  }
  // Under migration pricing the exact gate tightens: the realized gain
  // must cover the traffic the move redirects, not merely be nonnegative.
  const double penalty = migration_penalty(opts_, old_placements, plan.placements);
  state_.assign(i, plan.cluster, plan.placements);
  const double after = state_.profit();
  if (after + 1e-12 < profit_now + penalty) {
    // Roll back through the engine: clear and re-assign the old
    // placements. The aggregates — the view the next probe reads — come
    // back within ulps of their pre-move values, not bitwise (a remove/add
    // round trip rounds). No re-evaluation here — the restored profit
    // equals profit_now up to that rounding, and the next exact
    // evaluation repairs the caches anyway.
    state_.clear(i);
    if (was_assigned) state_.assign(i, old_cluster, std::move(old_placements));
    return false;
  }
  delta += after - profit_now;
  profit_now = after;
  return true;
}

double MoveEngine::apply(ClientId i, const std::optional<InsertionPlan>& plan,
                         double& profit_now) {
  if (state_.ledger().is_assigned(i)) state_.clear(i);
  if (plan) state_.assign(i, plan->cluster, plan->placements);
  const double after = state_.profit();
  const double delta = after - profit_now;
  profit_now = after;
  return delta;
}

}  // namespace cloudalloc::alloc
