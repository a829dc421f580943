// ResourceAllocator: the top-level Resource_Alloc heuristic of the paper
// (Figure 3). Multi-start greedy initial solution, then a local-search
// loop interleaving Adjust_ResourceShares, Adjust_DispersionRates,
// TurnON/TurnOFF and cloud-level reassignment until profit is steady.
//
// This is the library's primary public entry point:
//
//   cloudalloc::alloc::ResourceAllocator allocator(options);
//   auto result = allocator.run(cloud);
//   // result.allocation is feasible; result.report tells the story.
#pragma once

#include <string>
#include <vector>

#include "alloc/options.h"
#include "model/alloc_state.h"
#include "model/allocation.h"
#include "model/evaluator.h"

namespace cloudalloc::alloc {

struct RoundTrace {
  int round = 0;
  double delta_shares = 0.0;
  double delta_dispersion = 0.0;
  double delta_power = 0.0;
  double delta_reassign = 0.0;
  double profit_after = 0.0;
  /// True when the epoch deadline (options.time_budget_ms) expired mid-
  /// round: the remaining passes of this round were skipped and the loop
  /// stopped here.
  bool truncated = false;
};

struct AllocatorReport {
  double initial_profit = 0.0;
  double final_profit = 0.0;
  int rounds_run = 0;
  int unassigned_clients = 0;
  int active_servers = 0;
  double wall_seconds = 0.0;
  std::vector<RoundTrace> rounds;
};

struct AllocatorResult {
  model::Allocation allocation;
  AllocatorReport report;
};

class ResourceAllocator {
 public:
  explicit ResourceAllocator(AllocatorOptions options = {});

  const AllocatorOptions& options() const { return options_; }

  /// Runs the full heuristic from an empty allocation (plus whatever
  /// background load the cloud's servers carry).
  AllocatorResult run(const model::Cloud& cloud) const;

  /// Runs only the improvement loop on a caller-provided starting
  /// allocation (used by the consolidation example and to polish a given
  /// start in the tests).
  AllocatorResult improve(model::Allocation initial) const;

  /// In-place improvement loop for the online serving layer's warm-started
  /// epochs: runs the same rounds as improve() against the caller's live
  /// engine and leaves `state` holding the best round's allocation, so a
  /// long-lived AllocState survives the repair without ever being released
  /// or copied back. Honors the same options (migration_cost prices the
  /// moves, insertable masks the reassign retry, time_budget_ms bounds the
  /// epoch). The report's final_profit is the carried best-round scalar,
  /// exactly as improve() reports it.
  AllocatorReport improve_state(model::AllocState& state) const;

 private:
  AllocatorOptions options_;
};

}  // namespace cloudalloc::alloc
