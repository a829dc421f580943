// Per-layer probes: each one calls a layer's public functions from
// outside, under spans or stopwatches, and turns what it saw into the
// per-layer metrics of BENCHMARK.json.
#pragma once

#include <memory>

#include "alloc/options.h"
#include "harness.h"
#include "model/alloc_state.h"
#include "model/cloud.h"

namespace allocbench {

namespace model = cloudalloc::model;
namespace alloc = cloudalloc::alloc;

/// Outcome of replaying ResourceAllocator::run phase by phase.
struct Replay {
  double profit = 0.0;  ///< best-round profit, as the allocator reports it
  double wall_s = 0.0;
  std::unique_ptr<model::AllocState> state;  ///< the best round, adopted
};

/// Replays ResourceAllocator(opts).run(cloud) through the public
/// AllocState& phase functions in the allocator's order — greedy initial
/// solution, then per round adjust_all_shares, adjust_all_dispersions,
/// turn_on_servers/turn_off_servers per cluster, reassign_pass_snapshot —
/// with the same best-round and stall rules, recording a span around
/// every call. Sets the alloc.* and trace.replay_s metrics; the caller
/// compares the profit with the untraced solve's.
Replay replay_solve(const model::Cloud& cloud,
                    const alloc::AllocatorOptions& opts, Tracer& tracer,
                    Result& result);

/// Times MoveEngine::propose_best over a fixed sample of assigned clients
/// of a solved state, and counts best_insertion's pruning outcomes for the
/// same sample on a scratch ResidualView with each client vacated.
void probe_moves(model::AllocState& state, const alloc::AllocatorOptions& opts,
                 Result& result);

/// Times the batched queueing kernels on arrays built from the cloud's
/// clients and servers; reports ns and computed bytes per element.
void probe_kernels(const model::Cloud& cloud, Result& result);

}  // namespace allocbench
