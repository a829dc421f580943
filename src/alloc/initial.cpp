#include "alloc/initial.h"

#include <numeric>
#include <optional>
#include <utility>

#include "alloc/sharded.h"
#include "common/check.h"
#include "model/alloc_state.h"
#include "model/evaluator.h"

namespace cloudalloc::alloc {

using model::Allocation;
using model::ClientId;
using model::Cloud;
using model::ClusterId;

Allocation greedy_insert(const Cloud& cloud,
                         const std::vector<ClientId>& order,
                         const AllocatorOptions& opts) {
  // Every insertion probe below runs against the engine view, and
  // committed insertions go through the engine so the view tracks the
  // ledger.
  model::AllocState state(cloud);
  for (ClientId i : order) {
    CHECK(!state.ledger().is_assigned(i));
    auto plan = best_insertion(state.view(), i, opts);
    if (!plan) continue;  // nothing can host this client; it earns nothing
    if (opts.allow_rejection && plan->score < 0.0)
      continue;  // admission control: serving would lose money
    state.assign(i, plan->cluster, std::move(plan->placements));
  }
  return std::move(state).release();
}

Allocation build_initial_solution(const Cloud& cloud,
                                  const AllocatorOptions& opts, Rng& rng,
                                  const dist::ParallelEval& eval) {
  CHECK(opts.num_initial_solutions >= 1);
  const int starts = opts.num_initial_solutions;

  // Draw every start's client order up front from the caller's stream
  // (cumulative shuffles, exactly the sequence the sequential loop used to
  // produce), so the expensive greedy passes below are pure functions of
  // their order and can run as independent pool tasks. The online-serving
  // insertable mask filters AFTER the shuffle: the RNG draw sequence (and
  // with it the all-clients result) is unchanged, absent clients are
  // simply never offered to the greedy.
  std::vector<ClientId> order;
  order.reserve(static_cast<std::size_t>(cloud.num_clients()));
  for (ClientId i : cloud.client_ids()) order.push_back(i);
  std::vector<std::vector<ClientId>> orders;
  orders.reserve(static_cast<std::size_t>(starts));
  for (int iter = 0; iter < starts; ++iter) {
    rng.shuffle(order);
    orders.push_back(order);
    if (opts.insertable != nullptr) {
      auto& filtered = orders.back();
      std::erase_if(filtered, [&](ClientId i) {
        return (*opts.insertable)[i.index()] == 0;
      });
    }
  }

  std::vector<double> profits(static_cast<std::size_t>(starts), -1e300);
  std::vector<std::optional<Allocation>> cands(
      static_cast<std::size_t>(starts));
  if (opts.num_shards > 0) {
    // Sharded mode parallelizes WITHIN a start (alloc/sharded.h), so the
    // multi-start loop runs sequentially and hands the engine to each
    // pass. Results stay bit-identical at any shard/thread count because
    // each pass is.
    for (int iter = 0; iter < starts; ++iter) {
      const auto slot = static_cast<std::size_t>(iter);
      Allocation cand = sharded_greedy_insert(cloud, orders[slot], opts, eval);
      profits[slot] = model::profit(cand);
      cands[slot] = std::move(cand);
    }
  } else {
    eval.for_n(starts, [&](int iter) {
      const auto slot = static_cast<std::size_t>(iter);
      Allocation cand = greedy_insert(cloud, orders[slot], opts);
      profits[slot] = model::profit(cand);
      cands[slot] = std::move(cand);
    });
  }

  // Deterministic argmax: highest profit, lowest start index on ties —
  // the same winner the sequential keep-first-strict-improvement loop
  // picked, at any thread count.
  std::size_t best = 0;
  for (std::size_t iter = 1; iter < profits.size(); ++iter)
    if (profits[iter] > profits[best]) best = iter;
  CHECK(cands[best].has_value());
  return std::move(*cands[best]);
}

Allocation build_from_assignment(const Cloud& cloud,
                                 const std::vector<ClusterId>& assignment,
                                 const AllocatorOptions& opts) {
  CHECK(static_cast<int>(assignment.size()) == cloud.num_clients());
  model::AllocState state(cloud);
  for (ClientId i : cloud.client_ids()) {
    const ClusterId k = assignment[i.index()];
    if (k == model::kNoCluster) continue;
    auto plan = assign_distribute(state.view(), i, k, opts);
    if (plan) state.assign(i, k, std::move(plan->placements));
  }
  return std::move(state).release();
}

}  // namespace cloudalloc::alloc
