#include "baselines/sa_alloc.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "alloc/delta_price.h"
#include "alloc/initial.h"
#include "alloc/move_engine.h"
#include "common/rng.h"
#include "model/alloc_state.h"

namespace cloudalloc::baselines {

SaAllocResult sa_allocate(const model::Cloud& cloud,
                          const SaAllocOptions& opts, std::uint64_t seed) {
  Rng rng(seed);

  // Same initial draw as ever: a uniform cluster per client, decoded once
  // through the shared greedy machinery.
  std::vector<model::ClusterId> initial(
      static_cast<std::size_t>(cloud.num_clients()));
  for (auto& k : initial)
    k = static_cast<model::ClusterId>(
        rng.uniform_int(0, cloud.num_clusters() - 1));

  // From here the walk is incremental: a neighbor is a single-client move
  // into a random cluster, priced with the exact telescoped delta against
  // the engine's residual view — no rebuild, no full re-evaluation. The
  // Metropolis rule judges the priced delta; accepted moves are applied
  // unconditionally through the engine (downhill acceptance is the point).
  model::AllocState state(
      alloc::build_from_assignment(cloud, initial, opts.alloc));
  alloc::MoveEngine mover(state, opts.alloc);

  int evaluations = 1;
  double current = state.profit();
  double best_profit = current;
  model::AllocState::Checkpoint best = state.checkpoint(best_profit);

  double temperature = opts.annealing.initial_temperature;
  for (int step = 0; step < opts.annealing.steps; ++step) {
    const auto i = static_cast<model::ClientId>(
        rng.index(static_cast<std::size_t>(cloud.num_clients())));
    const auto k = static_cast<model::ClusterId>(
        rng.uniform_int(0, cloud.num_clusters() - 1));

    auto prop = mover.propose_into(i, k);
    ++evaluations;
    const bool assigned = state.ledger().is_assigned(i);
    if (!prop.plan && !assigned) {
      temperature *= opts.annealing.cooling;
      continue;  // nowhere to place an unassigned client: no-op neighbor
    }
    // An assigned client whose target cluster cannot host it drops out of
    // the allocation — the same outcome the rebuild decode produced for an
    // unplaceable gene.
    const double predicted =
        prop.plan ? prop.predicted
                  : alloc::removal_delta(state.view(), i,
                                         state.ledger().placements(i));

    const bool accept =
        predicted >= 0.0 ||
        rng.uniform() <
            std::exp(predicted /
                     std::max(temperature, opts.annealing.min_temperature));
    if (accept) {
      mover.apply(i, prop.plan, current);
      if (current > best_profit) {
        best_profit = current;
        best = state.checkpoint(best_profit);
      }
    }
    temperature *= opts.annealing.cooling;
  }

  SaAllocResult result{state.materialize(best)};
  result.profit = best_profit;
  result.evaluations = evaluations;
  return result;
}

}  // namespace cloudalloc::baselines
