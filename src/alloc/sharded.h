// Sharded (block-synchronous) greedy construction for 100k-client scale.
//
// The historical greedy inserts clients strictly sequentially: each probe
// prices against the state left by every earlier insertion, which is
// inherently serial. This variant trades a bounded amount of pricing
// staleness for parallelism: clients are consumed in fixed-size blocks,
// every client in a block is priced with best_insertion against a FROZEN
// ResidualView snapshot of the block start (the shards — each probes its
// slice of the block against that one shared view on
// dist::ParallelEval), and the resulting plans are then merged in block
// order through MoveEngine: a capacity revalidation (fits) against the
// live engine, a live re-price when the snapshot plan no longer fits, and
// an unconditional apply (the greedy serves every feasible client;
// admission control stays the allow_rejection check, as in the sequential
// path). One thread applies; the pool's other threads run later clients'
// revalidations and re-prices as soon as every earlier client whose probe
// window meets theirs has been applied.
//
// Determinism: every snapshot plan is a pure function of the frozen
// snapshot values — shard boundaries only partition WHO computes it —
// every live re-price reads the view entries a one-thread merge would, and
// the applies run in the fixed client order, so the resulting allocation
// is bit-identical at any shard count and any thread count. It is NOT the
// sequential greedy's allocation (block snapshots price a little staler
// than the live state); num_shards = 0 in AllocatorOptions keeps the
// historical path.
#pragma once

#include <vector>

#include "alloc/options.h"
#include "dist/parallel_eval.h"
#include "model/allocation.h"

namespace cloudalloc::alloc {

/// One sharded greedy pass over `order` starting from an empty allocation
/// over `cloud` (whose servers carry any background load). Uses
/// max(1, opts.num_shards) shards per block on `eval`.
model::Allocation sharded_greedy_insert(const model::Cloud& cloud,
                                        const std::vector<model::ClientId>& order,
                                        const AllocatorOptions& opts,
                                        const dist::ParallelEval& eval = {});

}  // namespace cloudalloc::alloc
