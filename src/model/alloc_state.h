// AllocState: the transactional allocation-state engine.
//
// One AllocState owns BOTH state representations the heuristic needs and
// keeps them bitwise-synchronized behind a single mutation API:
//
//   - the `ledger` Allocation — authoritative placements, incremental
//     profit caches, and the materialization/serialization surface, and
//   - the `view` ResidualView — the flat SoA residual arrays every
//     speculative probe (Assign_Distribute, delta pricing) runs against.
//
// The lifecycle every layer follows is propose -> delta-price -> commit /
// rollback: speculation happens on the view with the bitwise Undo log
// (remove_client/add_client/restore round-trips are lossless), and only a
// committed move goes through assign()/clear(), which mutate the ledger
// and then resync the touched servers' view entries from it — resync
// rather than replay, because the ledger's own remove/add arithmetic can
// drift by ulps while the view's restore is exact. A view probe against a
// synced engine is therefore bit-identical to probing the ledger itself
// (the accessors evaluate the same expressions over the same bits).
//
// Copies happen only at documented boundaries:
//   - save(k)/rollback()/commit(): cluster-scoped savepoints for phases
//     that speculate inside one cluster (TurnON/TurnOFF). A savepoint
//     holds bitwise pre-images of cluster k's server and client records
//     and of the profit scalars — O(cluster), never O(cloud) — so a
//     rolled-back trial leaves the state bitwise as it was, and a
//     committed one is the in-place mutation itself.
//   - checkpoint()/materialize(): best-so-far tracking. A Checkpoint is
//     placements + the tracked profit scalar only — no caches, no
//     aggregates — and materialize() rebuilds a plain Allocation from it
//     at report/serialize boundaries. The materialized allocation's
//     incrementally-derived aggregates may differ from the historical
//     state by ulps (summation order), which is why the profit REPORTED
//     for a checkpoint is the carried scalar, not a re-evaluation.
//
// Invariant contract: aggregates_consistent() revalidates the engine
// against a from-scratch recomputation — ledger aggregates within a
// relative tolerance of recomputed sums (incremental maintenance may
// drift by ulps; emptied servers reset exactly), and the view bitwise
// equal to the ledger. check_invariants() CHECKs it (always compiled);
// debug_check_invariants() is the NDEBUG-gated form the allocator and the
// distributed manager call at phase boundaries.
#pragma once

#include <vector>

#include "model/allocation.h"
#include "model/residual.h"

namespace cloudalloc::model {

class AllocState {
 public:
  /// Empty state over `cloud`.
  explicit AllocState(const Cloud& cloud) : ledger_(cloud), view_(ledger_) {}

  /// Adopts an existing allocation as the ledger (no copy when moved in).
  explicit AllocState(Allocation ledger)
      : ledger_(std::move(ledger)), view_(ledger_) {}

  AllocState(const AllocState&) = delete;
  AllocState& operator=(const AllocState&) = delete;
  AllocState(AllocState&&) = default;
  AllocState& operator=(AllocState&&) = default;

  const Cloud& cloud() const { return ledger_.cloud(); }

  /// Authoritative read surface: placements, response times, profit
  /// caches. Mutate only through the engine.
  const Allocation& ledger() const { return ledger_; }

  /// The SoA probe surface. Mutable access is for SPECULATION ONLY:
  /// remove_client/add_client excursions must be bitwise undone
  /// (restore()) before the next engine operation, or the view desyncs.
  ResidualView& view() { return view_; }
  const ResidualView& view() const { return view_; }

  // --- committed mutations (ledger + view stay in lockstep) --------------

  /// Allocation::assign + resync of every touched server's view entry.
  void assign(ClientId i, ClusterId k, std::vector<Placement> ps);

  /// Allocation::clear + resync.
  void clear(ClientId i);

  /// model::profit(ledger) — settles the ledger's caches. Call sites map
  /// 1:1 onto the pre-engine profit calls: the cache-repair sequence (and
  /// with it the rebase schedule) is part of the bit-identity contract.
  double profit();

  /// Replaces this state with `other` (the engine equivalent of
  /// `alloc = std::move(other)`). No savepoint may be open.
  void adopt(AllocState&& other);

  // --- cluster savepoints (in-place speculation) --------------------------

  /// Opens a savepoint over cluster k. It takes bitwise pre-images of k's
  /// server records (aggregates with hosted-client order, cost cache), of
  /// every client hosted in k (cluster, placements, revenue cache) and of
  /// the profit scalars. The ledger must be settled (call profit() first),
  /// so the dirty lists are empty. Savepoints nest, all over the same
  /// cluster. While one is open, assign() and clear() may touch only
  /// clients that were in k when the innermost savepoint opened, and
  /// assign() may only target k; both CHECK it.
  void save(ClusterId k);

  /// Writes the innermost savepoint's pre-images back verbatim and closes
  /// it: the ledger is bitwise what it was at save(k). The view mirrors
  /// the ledger, so k's view entries are resynced from the restored records.
  void rollback();

  /// Keeps the current state and closes the innermost savepoint.
  void commit();

  // --- placement checkpoints (best-so-far tracking) ----------------------

  /// Placements plus the tracked profit scalar; far cheaper than an
  /// Allocation clone (no caches, no per-server lists).
  struct Checkpoint {
    std::vector<ClusterId> cluster_of;
    std::vector<std::vector<Placement>> placements;
    double profit = 0.0;
  };

  Checkpoint checkpoint(double profit) const;

  /// Rebuilds a plain Allocation from a checkpoint — the only place the
  /// engine hands out allocation-state copies (report/serialize
  /// boundaries). See the class comment on ulp-level aggregate drift.
  Allocation materialize(const Checkpoint& ckpt) const;

  /// Steals the ledger (engine is dead afterwards).
  Allocation release() && { return std::move(ledger_); }

  // --- invariant checker -------------------------------------------------

  /// From-scratch revalidation: recomputed per-server sums vs the
  /// ledger's incremental aggregates (relative tolerance `tol`), hosted
  /// counts exact, and the view bitwise equal to the ledger.
  bool aggregates_consistent(double tol = 1e-9) const;

  /// CHECK(aggregates_consistent()) — always compiled.
  void check_invariants() const;

  /// Phase-boundary form: compiled out under NDEBUG (release builds).
  void debug_check_invariants() const {
#ifndef NDEBUG
    check_invariants();
#endif
  }

  /// Test hook: perturbs one ledger aggregate so invariant tests can
  /// prove the checker trips. Never called outside tests.
  void corrupt_aggregate_for_test(ServerId j, double delta);

 private:
  /// A client hosted in the saved cluster (so its cluster is the
  /// savepoint's).
  struct SavedClient {
    ClientId id = kNoClient;
    std::vector<Placement> placements;
    double revenue = 0.0;
  };
  struct Savepoint {
    ClusterId cluster = kNoCluster;
    std::vector<Allocation::ServerAgg> servers;  ///< in cluster order
    std::vector<double> costs;                   ///< in cluster order
    std::vector<SavedClient> clients;            ///< ascending by id
    double profit_total = 0.0;
    std::size_t repairs = 0;
  };

  /// CHECKs that an open savepoint covers a mutation of client i.
  void check_saved(ClientId i) const;

  Allocation ledger_;
  ResidualView view_;
  std::vector<ServerId> touched_;  ///< scratch for resync batching
  // Open savepoints are savepoints_[0, depth_); frames past depth_ are
  // kept so their vectors' capacity is reused by the next save().
  std::vector<Savepoint> savepoints_;
  std::size_t depth_ = 0;
};

}  // namespace cloudalloc::model
