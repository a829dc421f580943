#include "alloc/sharded.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "alloc/assign_distribute.h"
#include "alloc/move_engine.h"
#include "common/check.h"
#include "common/prof.h"
#include "model/alloc_state.h"
#include "model/residual.h"

namespace cloudalloc::alloc {

using model::Allocation;
using model::ClientId;
using model::ResidualView;

namespace {

/// Clients priced per frozen snapshot. Fixed (never derived from the shard
/// or worker count) so the block partition — and with it every snapshot a
/// plan is priced against — is a pure function of the client order. Larger
/// blocks give the shards more probes per freeze but price staler, which
/// costs sequential re-price fallbacks at merge time.
constexpr int kBlock = 1024;

}  // namespace

Allocation sharded_greedy_insert(const model::Cloud& cloud,
                                 const std::vector<ClientId>& order,
                                 const AllocatorOptions& opts,
                                 const dist::ParallelEval& eval) {
  model::AllocState state(cloud);
  MoveEngine mover(state, opts);
  const int shards = std::max(1, opts.num_shards);
  const int n = static_cast<int>(order.size());
  double profit_now = state.profit();

  std::vector<std::optional<InsertionPlan>> plans;
  for (int b0 = 0; b0 < n; b0 += kBlock) {
    const int len = std::min(kBlock, n - b0);

    // Freeze: settle the engine, then price the whole block against its
    // view. Every shard reads the one frozen view (its const reads are
    // pure), and every plan is a pure function of the snapshot values, so
    // neither the shard grain nor the scheduling can change a plan bit.
    {
      PROF_ZONE("sharded.price_block");
      profit_now = state.profit();
      CHECK(state.ledger().profit_settled());
      const ResidualView& frozen = state.view();
      plans.assign(static_cast<std::size_t>(len), std::nullopt);
      const int grain = (len + shards - 1) / shards;
      eval.for_chunks(len, grain, [&](int begin, int end) {
        for (int idx = begin; idx < end; ++idx) {
          const ClientId i = order[static_cast<std::size_t>(b0 + idx)];
          plans[static_cast<std::size_t>(idx)] =
              best_insertion(frozen, i, opts);
        }
      });
    }

    // Merge: apply sequentially in block order against the live engine.
    // Earlier merges may have consumed the capacity a snapshot plan
    // assumed, so revalidate the fit and fall back to a live re-price when
    // it no longer holds. Same admission rule as the sequential greedy:
    // every feasible client is served unless allow_rejection screens a
    // money-losing score.
    PROF_ZONE("sharded.merge_block");
    for (int idx = 0; idx < len; ++idx) {
      std::optional<InsertionPlan> plan =
          std::move(plans[static_cast<std::size_t>(idx)]);
      if (!plan) continue;
      const ClientId i = order[static_cast<std::size_t>(b0 + idx)];
      CHECK(!state.ledger().is_assigned(i));
      if (!mover.fits(i, *plan)) {
        plan = best_insertion(state.view(), i, opts);
        if (!plan) continue;
      }
      if (opts.allow_rejection && plan->score < 0.0) continue;
      mover.apply(i, plan, profit_now);
    }
  }
  return std::move(state).release();
}

}  // namespace cloudalloc::alloc
