// Cloud-level client reassignment: the local-search move that shifts whole
// clients between clusters (Section V's "change client assignment to
// decrease the resource saturation ... and combine the clients to decrease
// the number of active servers"). The same pass, applied to a random
// allocation, is the optimizer used on every Monte-Carlo sample in the
// paper's Figure 4/5 "best found" reference.
#pragma once

#include "alloc/options.h"
#include "dist/parallel_eval.h"
#include "model/alloc_state.h"

namespace cloudalloc::alloc {

/// One pass: every client (worst-served first) is removed and re-inserted
/// into its best cluster; each move commits only if true profit improves
/// (by at least the move's migration penalty when opts.migration_cost is
/// on). Also retries clients that are currently unassigned — except those
/// outside opts.insertable, which stay the serving layer's to admit.
/// Moves are probed
/// and delta-priced against the engine's ResidualView, so a
/// client with no (worthwhile) move costs no Allocation mutation and no
/// profit-cache repair. Returns the delta.
double reassign_pass(model::AllocState& state, const AllocatorOptions& opts);

/// Snapshot-scored variant used by the allocator hot path: candidate moves
/// for all clients are priced concurrently against a frozen SoA snapshot
/// (ResidualView — flat vectors, no Allocation clones; read-only fan-out
/// on `eval`), then the winners are applied sequentially, re-validated
/// against the live state (capacity fit + delta-price screen + true profit
/// improvement; a stale plan falls back to a live re-price). The apply
/// order and all tie-breaks are fixed, so the result is bit-identical at
/// any thread count — including the inline default. Returns the delta.
double reassign_pass_snapshot(model::AllocState& state,
                              const AllocatorOptions& opts,
                              const dist::ParallelEval& eval = {});

/// Repeats reassign_pass until a pass yields (relatively) less than
/// opts.steady_tolerance, at most `max_rounds` times. Returns total delta.
double reassign_until_steady(model::AllocState& state,
                             const AllocatorOptions& opts,
                             int max_rounds = 10);

/// Admission-control pass (only meaningful with opts.allow_rejection):
/// removes every client whose removal raises true profit (serving it costs
/// more in energy than its SLA pays). Returns the realized profit delta.
double drop_unprofitable_clients(model::AllocState& state,
                                 const AllocatorOptions& opts);

}  // namespace cloudalloc::alloc
