#include "alloc/server_power.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "alloc/adjust_shares.h"
#include "alloc/assign_distribute.h"
#include "alloc/delta_price.h"
#include "common/check.h"
#include "model/alloc_state.h"
#include "model/evaluator.h"
#include "model/residual.h"

namespace cloudalloc::alloc {
namespace {

/// Clients whose delivered utility is below this fraction of their maximum
/// are "degraded": TurnON's bidders for a newly activated server.
constexpr double kDegradedUtilityFraction = 0.9;

/// TurnOFF pre-screen (absolute profit units): every candidate shutdown is
/// first priced on the view of the shrunk cluster (evictions and
/// re-insertions through the delta pricer); materialization — share
/// re-grow and the exact profit gate — runs only when that estimate is
/// above -kPowerScreenMargin. The estimate omits the re-grow step, so the
/// margin absorbs how much re-growing shares can add on top of the priced
/// moves.
constexpr double kPowerScreenMargin = 1.0;

/// TurnOFF early exit: candidates are probed worst-value first, and a pass
/// over a cluster stops after this many consecutive candidates fail
/// (eviction infeasible, screened out, or gate-rejected). The ranking means
/// every remaining candidate carries strictly more value than the ones that
/// just failed, so shutting them down is even less likely to pay.
constexpr int kPowerPatience = 4;

using model::AllocState;
using model::Allocation;
using model::ClientId;
using model::Cloud;
using model::ClusterId;
using model::ServerClassId;
using model::ServerId;

/// Revenue share a server can claim: sum over hosted slices of
/// psi * lambda_agreed * U(R), minus its operating cost. TurnOFF candidates
/// are ranked by this, lowest first.
double server_value(const Allocation& alloc, ServerId j) {
  const Cloud& cloud = alloc.cloud();
  double value = 0.0;
  for (ClientId i : alloc.clients_on(j)) {
    const double r = alloc.response_time(i);
    if (!std::isfinite(r)) continue;
    for (const auto& p : alloc.placements(i)) {
      if (p.server != j) continue;
      value += p.psi * cloud.client(i).lambda_agreed *
               cloud.utility_of(i).value(r);
    }
  }
  return value - model::server_cost(alloc, j);
}

/// Clients in cluster k whose delivered utility is below the degraded
/// threshold (these are the ones a new server could help).
std::vector<ClientId> degraded_clients(const Allocation& alloc, ClusterId k) {
  const Cloud& cloud = alloc.cloud();
  // (response time, client): the sort key is computed once per client.
  std::vector<std::pair<double, ClientId>> ranked;
  // clients_in() is ascending by id: that fixes the input order of the
  // (unstable) sort below, and with it the bidders' order among ties.
  for (ClientId i : alloc.clients_in(k)) {
    const auto& fn = cloud.utility_of(i);
    const double max_u = fn.max_value();
    if (max_u <= 0.0) continue;
    const double r = alloc.response_time(i);
    const double u = std::isfinite(r) ? fn.value(r) : 0.0;
    if (u < kDegradedUtilityFraction * max_u) ranked.emplace_back(r, i);
  }
  // Worst-served first: they have the most to gain.
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<ClientId> out;
  out.reserve(ranked.size());
  for (const auto& entry : ranked) out.push_back(entry.second);
  return out;
}

}  // namespace

double turn_on_servers(AllocState& state, ClusterId k,
                       const AllocatorOptions& opts) {
  const Cloud& cloud = state.cloud();

  // One inactive representative per server class present in this cluster.
  std::map<ServerClassId, ServerId> candidates;
  for (ServerId j : cloud.cluster(k).servers)
    if (!state.ledger().active(j) &&
        !candidates.count(cloud.server(j).server_class))
      candidates.emplace(cloud.server(j).server_class, j);
  if (candidates.empty()) return 0.0;

  double total_delta = 0.0;
  // The bidders change only when a candidate commits: a rollback restores
  // cluster k bit for bit, so the list it would rebuild is the same.
  std::vector<ClientId> bidders = degraded_clients(state.ledger(), k);
  for (const auto& [cls, j] : candidates) {
    (void)cls;
    if (bidders.empty()) break;

    // The trial runs in place under a savepoint over cluster k: bids
    // mutate the live state, probes run on its view, and the whole bundle
    // is committed or rolled back at the gate. The profit settled just
    // before the save is the gate's base.
    const double gate_before = state.profit();
    state.save(k);
    // Bidding phase: moves may individually lose P0 (it is sunk once the
    // first bidder lands on j), so allow per-move regressions inside the
    // savepoint and judge the bundle at the gate below. Under migration
    // pricing each accepted bid also carries its redirection charge, and
    // the bundle gate must clear the accepted bids' total.
    bool anyone_used_j = false;
    double bundle_penalty = 0.0;
    for (ClientId i : bidders) {
      const double before_move = state.profit();
      const ClusterId old_cluster = state.ledger().cluster_of(i);
      const auto old_placements = state.ledger().placements(i);
      state.clear(i);
      auto plan = assign_distribute(state.view(), i, k, opts);
      if (!plan) {
        state.assign(i, old_cluster, old_placements);
        continue;
      }
      const double penalty =
          migration_penalty(opts, old_placements, plan->placements);
      state.assign(i, k, plan->placements);
      const bool uses_j =
          std::any_of(plan->placements.begin(), plan->placements.end(),
                      [&](const auto& p) { return p.server == j; });
      const double after_move = state.profit();
      // Tolerate paying P0 of the candidate on the move that opens it.
      const double sunk = (uses_j && !anyone_used_j)
                              ? cloud.server_class_of(j).cost_fixed
                              : 0.0;
      if (after_move + sunk + 1e-12 < before_move + penalty) {
        state.assign(i, old_cluster, old_placements);
        continue;
      }
      anyone_used_j = anyone_used_j || uses_j;
      bundle_penalty += penalty;
    }
    if (anyone_used_j) {
      const double gate_after = state.profit();
      if (gate_after > gate_before + bundle_penalty + 1e-12) {
        total_delta += gate_after - gate_before;
        state.commit();
        bidders = degraded_clients(state.ledger(), k);
        continue;
      }
    }
    state.rollback();
  }
  return total_delta;
}

double turn_off_servers(AllocState& state, ClusterId k,
                        const AllocatorOptions& opts) {
  const Cloud& cloud = state.cloud();
  double total_delta = 0.0;

  // Rank active, non-pinned servers by value, worst first. Values are
  // precomputed once: server_value walks the server's hosted clients, so
  // evaluating it inside the sort comparator would cost O(C log C) passes.
  std::vector<std::pair<double, ServerId>> ranked;
  for (ServerId j : cloud.cluster(k).servers)
    if (state.ledger().active(j) && !cloud.server(j).background.keeps_on)
      ranked.emplace_back(server_value(state.ledger(), j), j);
  std::sort(ranked.begin(), ranked.end());

  // Shares on healthy servers sit up to share_growth x their preferred
  // size; evicted clients only fit if that surplus is reclaimed first.
  AllocatorOptions shrink = opts;
  shrink.share_growth = 1.0;

  // The shrunk cluster is the same for every candidate whose attempt does
  // not commit, so it is built once under an outer savepoint and shared:
  // one share sweep per pass instead of per candidate (rebuilt after a
  // commit). Shrinking the candidate itself is immaterial — its clients
  // are evicted before anything reads their shares, and its aggregates
  // reset exactly to zero when it empties. Every gate compares against
  // the unshrunk state's settled profit, taken just before the save.
  bool shrunk = false;
  double gate_before = 0.0;
  const auto ensure_base = [&] {
    if (shrunk) return;
    gate_before = state.profit();
    state.save(k);
    for (ServerId other : cloud.cluster(k).servers)
      if (state.ledger().active(other))
        adjust_resource_shares(state, other, shrink);
    state.profit();  // settle before the per-candidate savepoints
    shrunk = true;
  };

  InsertionConstraints constraints;
  constraints.allow_inactive = false;  // reassign onto *active* servers

  model::ResidualView& view = state.view();
  std::vector<model::ResidualView::Undo> undo;  // one per probe step
  int failures = 0;  // consecutive non-commits, for the patience exit
  for (const auto& [value, j] : ranked) {
    (void)value;
    if (failures >= kPowerPatience) break;
    if (!state.ledger().active(j)) continue;  // emptied by earlier shutdown
    ensure_base();
    constraints.exclude = j;

    // Probe the shutdown on the live view: evict and re-insert the
    // candidate's clients one at a time, pricing each step with the delta
    // pricer and recording an Undo per step; restoring them in reverse
    // leaves the view bitwise as it was. The view is the shrunk ledger's
    // own aggregates, so the plans transfer verbatim to the replay below.
    const std::vector<ClientId> evicted =
        state.ledger().clients_on(j);  // copy
    if (undo.size() < 2 * evicted.size()) undo.resize(2 * evicted.size());
    std::size_t steps = 0;
    std::vector<InsertionPlan> plans;
    plans.reserve(evicted.size());
    double move_delta = 0.0;
    double eviction_penalty = 0.0;  // migration charges of the forced moves
    bool ok = true;
    for (ClientId i : evicted) {
      const std::vector<model::Placement>& old_ps =
          state.ledger().placements(i);
      move_delta += removal_delta(view, i, old_ps);
      view.remove_client(i, old_ps, &undo[steps++]);
      auto plan = assign_distribute(view, i, state.ledger().cluster_of(i),
                                    opts, constraints);
      if (!plan) {
        ok = false;
        break;
      }
      move_delta += insertion_delta(view, i, plan->placements);
      eviction_penalty += migration_penalty(opts, old_ps, plan->placements);
      view.add_client(i, plan->placements, &undo[steps++]);
      plans.push_back(std::move(*plan));
    }
    while (steps > 0) view.restore(undo[--steps]);
    if (!ok) {
      ++failures;
      continue;
    }

    // Screen: the shrink and re-grow sweeps on the survivors roughly
    // cancel at the gate, so the priced moves carry the decision; only
    // candidates within the margin pay for materialization.
    if (move_delta - eviction_penalty < -kPowerScreenMargin) {
      ++failures;
      continue;
    }

    // Materialize under a nested savepoint: replay the probed plans on the
    // shrunk state, re-grow shares to the normal policy, and judge the
    // exact profit gate.
    state.save(k);
    for (std::size_t idx = 0; idx < evicted.size(); ++idx) {
      const ClientId i = evicted[idx];
      state.clear(i);
      state.assign(i, plans[idx].cluster, std::move(plans[idx].placements));
    }
    for (ServerId other : cloud.cluster(k).servers)
      if (state.ledger().active(other))
        adjust_resource_shares(state, other, opts);

    const double gate_after = state.profit();
    if (gate_after > gate_before + eviction_penalty + 1e-12) {
      total_delta += gate_after - gate_before;
      state.commit();  // the shutdown
      state.commit();  // the shrunk base it was built on
      shrunk = false;
      failures = 0;
    } else {
      state.rollback();
      ++failures;
    }
  }
  if (shrunk) state.rollback();
  return total_delta;
}

double adjust_server_power(AllocState& state, const AllocatorOptions& opts) {
  double delta = 0.0;
  for (ClusterId k : state.cloud().cluster_ids()) {
    if (opts.enable_turn_on) delta += turn_on_servers(state, k, opts);
    if (opts.enable_turn_off) delta += turn_off_servers(state, k, opts);
  }
  return delta;
}

}  // namespace cloudalloc::alloc
