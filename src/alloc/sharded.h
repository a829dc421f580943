// Sharded (block-synchronous) greedy construction for 100k-client scale.
//
// The historical greedy inserts clients strictly sequentially: each probe
// prices against the state left by every earlier insertion, which is
// inherently serial. This variant trades a bounded amount of pricing
// staleness for parallelism: clients are consumed in fixed-size blocks,
// every client in a block is priced with best_insertion against a FROZEN
// ResidualView snapshot of the block start (the shards — each probes its
// slice of the block against that one shared view on
// dist::ParallelEval), and the resulting plans are then merged
// sequentially in block order through MoveEngine: a capacity revalidation
// (fits) against the live engine, a live re-price when the snapshot plan
// no longer fits, and an unconditional apply (the greedy serves every
// feasible client; admission control stays the allow_rejection check, as
// in the sequential path).
//
// Determinism: every plan is a pure function of the frozen snapshot
// values — shard boundaries only partition WHO computes it — and the
// merge order is the fixed client order, so the resulting allocation is
// bit-identical at any shard count and any thread count. It is NOT the
// sequential greedy's allocation (block snapshots price a little staler
// than the live state); num_shards = 0 in AllocatorOptions keeps the
// historical path.
#pragma once

#include <vector>

#include "alloc/options.h"
#include "dist/parallel_eval.h"
#include "model/allocation.h"

namespace cloudalloc::alloc {

/// One sharded greedy pass over `order` starting from `base` (which
/// carries background load and possibly earlier epochs' state). Uses
/// max(1, opts.num_shards) shards per block on `eval`.
model::Allocation sharded_greedy_insert(const model::Allocation& base,
                                        const std::vector<model::ClientId>& order,
                                        const AllocatorOptions& opts,
                                        const dist::ParallelEval& eval = {});

}  // namespace cloudalloc::alloc
