#include "alloc/reassign.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "alloc/assign_distribute.h"
#include "alloc/delta_price.h"
#include "alloc/move_engine.h"
#include "common/check.h"
#include "common/mathutil.h"
#include "common/prof.h"
#include "model/alloc_state.h"
#include "model/residual.h"

namespace cloudalloc::alloc {

using model::AllocState;
using model::Allocation;
using model::ClientId;
using model::ClusterId;
using model::ResidualView;

namespace {

/// Moves whose delta-priced profit change is below this are rejected
/// without touching the ledger. The screen is three orders of magnitude
/// wider than the exact commit test's 1e-12, and the predicted delta
/// agrees with the exact one to rounding of the full-profit magnitude, so
/// the screen only drops moves the exact test would reject anyway;
/// borderline moves still go through commit/rollback.
constexpr double kPredictReject = 1e-9;

/// Online-serving insertability (AllocatorOptions::insertable): the retry
/// of unassigned clients must not insert one outside the mask — absent or
/// rejected clients are the serving layer's to admit, not the repair
/// pass's.
bool may_insert(const AllocatorOptions& opts, ClientId i) {
  return opts.insertable == nullptr || (*opts.insertable)[i.index()] != 0;
}

/// Every client, worst-served first (unassigned clients sort to the
/// front: R = +inf). Each response time is computed once before the
/// sort, not twice per comparison: Allocation::response_time builds a
/// slice vector on every call.
std::vector<ClientId> worst_served_first(const Allocation& ledger,
                                         bool stable) {
  const auto& cloud = ledger.cloud();
  std::vector<ClientId> order;
  order.reserve(static_cast<std::size_t>(cloud.num_clients()));
  std::vector<double> r(static_cast<std::size_t>(cloud.num_clients()));
  for (ClientId i : cloud.client_ids()) {
    order.push_back(i);
    r[i.index()] = ledger.response_time(i);
  }
  const auto worse = [&](ClientId a, ClientId b) {
    return r[a.index()] > r[b.index()];
  };
  if (stable)
    std::stable_sort(order.begin(), order.end(), worse);
  else
    std::sort(order.begin(), order.end(), worse);
  return order;
}

/// A pricing thread's private copy of one snapshot pass's frozen view.
/// `stamp` names the pass it copies; 0 marks it stale.
struct ViewCopy {
  std::optional<ResidualView> view;
  std::uint64_t stamp = 0;
};

/// A fresh stamp per snapshot pass, never 0.
std::uint64_t next_pass_stamp() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

double reassign_pass(AllocState& state, const AllocatorOptions& opts) {
  const std::vector<ClientId> order =
      worst_served_first(state.ledger(), /*stable=*/false);

  // Settle once; from here profit is tracked through commits and moves are
  // pre-screened on the engine's delta-priced view, so clients whose probe
  // finds no (worthwhile) move cost zero ledger churn and zero cache
  // repair.
  double profit_now = state.profit();
  MoveEngine mover(state, opts);

  double delta = 0.0;
  for (ClientId i : order) {
    const bool was_assigned = state.ledger().is_assigned(i);
    if (!was_assigned && !may_insert(opts, i)) continue;
    MoveEngine::Proposal prop = mover.propose_best(i);
    if (!prop.plan || prop.predicted < -kPredictReject) continue;
    mover.commit(i, was_assigned, *prop.plan, profit_now, delta);
  }
  return delta;
}

double reassign_pass_snapshot(AllocState& state, const AllocatorOptions& opts,
                              const dist::ParallelEval& eval) {
  const auto& cloud = state.cloud();
  const int n = cloud.num_clients();
  if (n == 0) return 0.0;
  const Allocation& ledger = state.ledger();
  // Stable, so equal response times keep client-id order at any thread
  // count and across standard libraries.
  const std::vector<ClientId> order =
      worst_served_first(ledger, /*stable=*/true);

  // Phase 1: price every client's best move against a frozen SoA snapshot
  // of the settled engine state. Each chunk probes each client by
  // vacate/probe/restore on its thread's private copy of the view, which
  // is copied at most once per thread per pass (a copy per chunk was the
  // dominant allocation traffic at 100k clients). Restore is
  // bitwise-exact, so a reused copy is indistinguishable from a fresh one
  // and every plan depends only on the snapshot — not on chunk boundaries
  // or scheduling. Chunk size is fixed (never derived from the worker
  // count) for the same reason. The settled ledger itself is only read
  // (placements), which the frozen-snapshot contract allows.
  double profit_now = state.profit();  // settle: reads become pure
  CHECK(ledger.profit_settled());
  const ResidualView& base = state.view();
  const std::uint64_t stamp = next_pass_stamp();
  constexpr int kChunk = 16;
  std::vector<std::optional<InsertionPlan>> plans(static_cast<std::size_t>(n));
  {
    PROF_ZONE("reassign.price");
    eval.for_chunks(n, kChunk, [&](int begin, int end) {
      thread_local ViewCopy copy;
      if (copy.stamp != stamp) {
        if (copy.view)
          *copy.view = base;  // keeps the vectors' capacity
        else
          copy.view.emplace(base);
      }
      // Stale while the chunk runs: a throw between remove_client and
      // restore must not leave a half-restored copy for the next chunk.
      copy.stamp = 0;
      ResidualView& scratch = *copy.view;
      ResidualView::Undo undo;
      for (int idx = begin; idx < end; ++idx) {
        const ClientId i = order[static_cast<std::size_t>(idx)];
        if (!ledger.is_assigned(i) && !may_insert(opts, i)) continue;
        if (ledger.is_assigned(i)) {
          scratch.remove_client(i, ledger.placements(i), &undo);
          plans[static_cast<std::size_t>(idx)] =
              best_insertion(scratch, i, opts);
          scratch.restore(undo);
        } else {
          plans[static_cast<std::size_t>(idx)] =
              best_insertion(scratch, i, opts);
        }
      }
      copy.stamp = stamp;
    });
  }

  // Phase 2: apply sequentially in the fixed order against the live
  // engine. Earlier winners may have consumed the capacity a snapshot
  // plan assumed, so re-validate the fit and fall back to a live re-price
  // when it no longer holds.
  PROF_ZONE("reassign.apply");
  MoveEngine mover(state, opts);
  ResidualView& live = state.view();
  ResidualView::Undo undo;

  double delta = 0.0;
  for (int idx = 0; idx < n; ++idx) {
    if (!plans[static_cast<std::size_t>(idx)]) continue;
    const ClientId i = order[static_cast<std::size_t>(idx)];
    const bool was_assigned = ledger.is_assigned(i);
    std::optional<InsertionPlan> plan =
        std::move(plans[static_cast<std::size_t>(idx)]);
    double predicted = 0.0;
    if (was_assigned) {
      const std::vector<model::Placement>& old_ps = ledger.placements(i);
      const double vacate = removal_delta(live, i, old_ps);
      live.remove_client(i, old_ps, &undo);
      if (!mover.fits(i, *plan)) plan = best_insertion(live, i, opts);
      if (plan)
        predicted = vacate + insertion_delta(live, i, plan->placements) -
                    migration_penalty(opts, old_ps, plan->placements);
      live.restore(undo);
    } else {
      if (!mover.fits(i, *plan)) plan = best_insertion(live, i, opts);
      if (plan) predicted = insertion_delta(live, i, plan->placements);
    }
    if (!plan || predicted < -kPredictReject) continue;
    mover.commit(i, was_assigned, *plan, profit_now, delta);
  }
  return delta;
}

double drop_unprofitable_clients(AllocState& state,
                                 const AllocatorOptions& opts) {
  if (!opts.allow_rejection) return 0.0;
  double delta = 0.0;
  for (ClientId i : state.cloud().client_ids()) {
    if (!state.ledger().is_assigned(i)) continue;
    const double before = state.profit();
    const ClusterId k = state.ledger().cluster_of(i);
    const std::vector<model::Placement> saved = state.ledger().placements(i);
    state.clear(i);
    const double after = state.profit();
    if (after > before + 1e-12) {
      delta += after - before;
    } else {
      state.assign(i, k, saved);
    }
  }
  return delta;
}

double reassign_until_steady(AllocState& state, const AllocatorOptions& opts,
                             int max_rounds) {
  double total = 0.0;
  for (int round = 0; round < max_rounds; ++round) {
    const double base = std::fabs(state.profit());
    const double delta = reassign_pass(state, opts);
    total += delta;
    if (delta <= opts.steady_tolerance * std::max(base, 1.0)) break;
  }
  return total;
}

}  // namespace cloudalloc::alloc
