// Tuning knobs of the Resource_Alloc heuristic (Figure 3 of the paper).
// Defaults follow the paper where it is explicit (3 initial solutions) and
// DESIGN.md [interp-*] notes where it is not.
#pragma once

#include <cstdint>
#include <vector>

namespace cloudalloc::alloc {

struct AllocatorOptions {
  /// Greedy multi-start count; the paper uses 3 and keeps the best.
  int num_initial_solutions = 3;

  /// Granularity G of the psi grid in Assign_Distribute's DP.
  int psi_grid = 10;

  /// Required absolute service-rate slack (requests/s) per M/M/1 queue so
  /// allocations stay strictly stable (the paper's "small positive" floor
  /// of constraint (7)).
  double stability_headroom = 0.05;

  /// When sizing a fresh slice's share, aim for a per-stage sojourn time of
  /// this fraction of the client's utility zero-crossing ([interp] — the
  /// scan lost the paper's exact share-sizing constant). The effective size
  /// is the minimum of this and the capacity-proportional size (see
  /// share_policy.h), so tight clouds shrink everyone's slack.
  double delay_target_fraction = 0.15;

  /// Ceiling multiplier for Adjust_ResourceShares: a slice's share may grow
  /// to at most share_growth x its preferred size, keeping free capacity on
  /// every server so the local search can still move clients.
  double share_growth = 1.5;

  /// Local-search loop: stop after this many rounds or when a full round
  /// improves profit by less than `steady_tolerance` (relative).
  int max_local_search_rounds = 12;
  double steady_tolerance = 1e-5;

  /// Wall-clock budget for the improvement loop in milliseconds; the loop
  /// stops after the first round that exceeds it. <= 0 means unlimited.
  /// Decision epochs have deadlines — the allocation must be ready before
  /// the predictions that shaped it go stale (Section III).
  double time_budget_ms = 0.0;

  /// TurnOFF pre-screen (absolute profit units): every candidate shutdown
  /// is first priced clone-free on a ResidualView of the shrunk cluster
  /// (evictions and re-insertions through the delta pricer); the expensive
  /// materialization — clone, share re-grow, exact profit gate — runs only
  /// when that estimate is above -power_screen_margin. The estimate omits
  /// the re-grow step, so the margin absorbs how much re-growing shares
  /// can add on top of the priced moves. Negative disables the screen
  /// (every surviving candidate is materialized and gated exactly).
  double power_screen_margin = 1.0;

  /// TurnOFF early exit: candidates are probed worst-value first, and a
  /// pass over a cluster stops after this many consecutive candidates
  /// fail (eviction infeasible, screened out, or gate-rejected). The
  /// ranking means every remaining candidate carries strictly more value
  /// than the ones that just failed, so shutdown attempts on them are
  /// even less likely to pay. <= 0 probes every candidate.
  int power_patience = 4;

  // Stage toggles (the ablation bench flips these).
  bool enable_adjust_shares = true;
  bool enable_adjust_dispersion = true;
  bool enable_turn_on = true;
  bool enable_turn_off = true;
  bool enable_reassign = true;

  /// Clients whose delivered utility is below this fraction of their
  /// maximum are treated as "degraded" by TurnON and reassignment passes.
  double degraded_utility_fraction = 0.9;

  /// Admission control (extension; the paper's constraint (6) serves every
  /// client). When true, the greedy skips clients whose approximate profit
  /// contribution is negative and the local search drops clients whose
  /// removal raises true profit.
  bool allow_rejection = false;

  // --- online serving (serve::OnlineServer; Mazzucco et al.'s admission
  // and hysteresis policies live in serve/admission.h) ------------------

  /// Migration pricing for warm-started epochs: moving an already-placed
  /// client is charged migration_cost x redirected_fraction(old, new) —
  /// the fraction of its traffic leaving its current servers
  /// (model/diff.h). The charge biases the ACCEPT tests of the move-making
  /// passes (MoveEngine commits, the reassign re-price, dispersion
  /// re-splits, TurnON bids, TurnOFF eviction gates): a move must now beat
  /// the state quo by at least its migration charge. It is a decision
  /// cost only — reported profit stays the paper's model profit, so with
  /// the knob at 0 (default) every pass is bit-identical to the historical
  /// behavior. Fresh insertions and removals migrate nothing.
  double migration_cost = 0.0;

  /// Online serving: when non-null, a num_clients-sized mask of the
  /// clients the allocator may INSERT — the greedy starts filter their
  /// orders by it, and the improvement passes skip currently-unassigned
  /// clients outside it (already-placed clients are adjusted and moved
  /// normally regardless). The serving layer points this at its admitted
  /// set so batch solves and repair rounds never conjure up a client that
  /// has not arrived or was turned away. Null (default) = every client;
  /// an all-true mask is bit-identical to null. Non-owning: the caller
  /// keeps the mask alive for the allocator call.
  const std::vector<std::uint8_t>* insertable = nullptr;

  /// Worker threads for the parallel evaluation engine (multi-start greedy
  /// starts, reassign candidate scoring, distributed cluster agents).
  /// 1 = run everything on the calling thread; 0 = use the hardware
  /// concurrency. The engine's reductions are deterministic: the same seed
  /// produces a bit-identical allocation at every value of num_threads.
  int num_threads = 1;

  /// Sharded greedy construction for large populations (alloc/sharded.h):
  /// > 0 switches build_initial_solution to the block-synchronous sharded
  /// greedy, which prices blocks of clients against a frozen snapshot in
  /// `num_shards` concurrent shards and merges the plans sequentially
  /// through MoveEngine with capacity revalidation. The result is a pure
  /// function of the scenario and the block size — every plan is priced on
  /// the snapshot, never on a shard's partial state — so profits are
  /// bit-identical at ANY shard count (1, 2, 4, 8, ...) and any
  /// num_threads; the shard count only sets the fan-out grain. 0 (default)
  /// keeps the historical strictly-sequential greedy, whose results the
  /// sharded path does not reproduce (it prices against block snapshots,
  /// not the live state).
  int num_shards = 0;

  /// Insertion cluster fan-out: > 0 restricts each best_insertion probe to
  /// this many clusters, chosen by a fixed multiplicative hash of the
  /// client id (a deterministic window — the probe set depends only on
  /// the client and the cluster count, never on state, threads or
  /// shards). Cuts the per-client probe cost from O(K) to O(fanout) on
  /// cluster-rich clouds at some profit cost. 0 (default) probes every
  /// cluster, the paper's behavior.
  int cluster_fanout = 0;

  // --- distributed deployment (dist::DistributedAllocator) -------------

  /// Message-passing mode: how long the manager waits for the missing
  /// agent responses of one improvement round before skipping them
  /// (Mailbox::receive_for underneath). Also capped by whatever remains
  /// of time_budget_ms, so a dead agent cannot blow the epoch deadline.
  /// <= 0 waits indefinitely — only safe with a fault-free transport.
  double dist_round_timeout_ms = 2000.0;

  /// Consecutive silent rounds after which an agent is presumed dead and
  /// no longer waited for (its cluster keeps its last merged placements).
  /// A late response from a presumed-dead agent revives it.
  int dist_miss_threshold = 2;

  std::uint64_t seed = 1;
  bool verbose = false;
};

}  // namespace cloudalloc::alloc
