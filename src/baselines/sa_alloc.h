// Simulated-annealing allocator: the stochastic straw-man the paper says
// one would need absent the heuristic. The walk starts from a uniform
// client->cluster assignment decoded once through the shared greedy
// machinery, then moves one client at a time: each neighbor is priced with
// the exact telescoped delta against the allocation-state engine (no
// rebuild-and-re-evaluate per step), judged by the Metropolis rule, and
// applied through the engine when accepted.
#pragma once

#include <cstdint>

#include "alloc/options.h"
#include "model/allocation.h"

namespace cloudalloc::baselines {

struct AnnealingOptions {
  double initial_temperature = 1.0;
  double cooling = 0.995;       ///< geometric cooling factor per step
  int steps = 10'000;
  double min_temperature = 1e-6;
};

struct SaAllocOptions {
  AnnealingOptions annealing;
  alloc::AllocatorOptions alloc;
};

struct SaAllocResult {
  model::Allocation allocation;
  double profit = 0.0;
  int evaluations = 0;
};

SaAllocResult sa_allocate(const model::Cloud& cloud,
                          const SaAllocOptions& opts, std::uint64_t seed);

}  // namespace cloudalloc::baselines
