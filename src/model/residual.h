// ResidualView: a flat SoA snapshot of the per-server residual state an
// insertion probe needs — free shares, free disk, offered processing load,
// and hosted-client counts — detached from the full Allocation.
//
// The view exists so the heuristic's hot loops (Assign_Distribute probing,
// reassignment move pricing) can speculate WITHOUT cloning an Allocation:
// copying a view is a handful of flat vector copies (no per-client
// placement vectors, no profit caches), and removing/re-adding one
// client's footprint is O(#placements) on plain arrays. The arithmetic
// mirrors Allocation's aggregate maintenance operation-for-operation
// (including the reset-to-zero guard when a server empties), so a view
// kept in sync with an Allocation reports bit-identical residuals.
//
// Exact rollback: add_client/remove_client optionally record the touched
// entries in an Undo; restore() writes the saved values back verbatim, so
// a speculate-then-restore cycle is bitwise lossless (a -= x; a += x; is
// not). The reassignment passes lean on this to probe hundreds of clients
// against one shared view copy without accumulating drift.
//
// Concurrency: every const member is a pure read (the view has no lazy
// caches), so one frozen view may be probed from many threads at once;
// a thread that speculates mutates its own copy.
#pragma once

#include <cstdint>
#include <vector>

#include "model/allocation.h"

namespace cloudalloc::model {

class ResidualView {
 public:
  /// Captures the allocation's current server aggregates. The view does
  /// not observe later mutations of `alloc`; callers keep it in sync via
  /// add_client/remove_client or rebuild it.
  explicit ResidualView(const Allocation& alloc);

  ResidualView(const ResidualView&) = default;
  ResidualView& operator=(const ResidualView&) = default;
  ResidualView(ResidualView&&) = default;
  ResidualView& operator=(ResidualView&&) = default;

  const Cloud& cloud() const { return *cloud_; }

  // --- read API (mirrors the Allocation accessors the probes use) --------

  double free_phi_p(ServerId j) const {
    return 1.0 - (used_p_[j] + bg_p_[j]);
  }
  double free_phi_n(ServerId j) const {
    return 1.0 - (used_n_[j] + bg_n_[j]);
  }
  double free_disk(ServerId j) const {
    return cap_m_[j] - (used_disk_[j] + bg_disk_[j]);
  }
  double proc_load(ServerId j) const { return load_p_[j]; }
  bool active(ServerId j) const {
    return hosted_[j] > 0 || keeps_on_[j] != 0;
  }
  int hosted_clients(ServerId j) const { return hosted_[j]; }
  bool keeps_on(ServerId j) const { return keeps_on_[j] != 0; }

  /// Batched eq.-8 free-disk screen over cluster k's servers (SIMD lanes,
  /// common/simd.h): ok[idx] = free_disk(servers[idx]) + eps >= need for
  /// idx in cluster order, resizing `ok` to the cluster size. Returns
  /// false — leaving `ok` untouched — when the cluster's server ids are
  /// not one contiguous ascending range (the scenario generators build
  /// contiguous clusters; hand-built clouds may not), in which case the
  /// caller falls back to per-server free_disk() tests. The comparison is
  /// the scalar test's exact operation chain, so the mask never admits or
  /// drops a server the scalar filter would not.
  bool screen_free_disk(ClusterId k, double need, double eps,
                        std::vector<std::uint8_t>& ok) const;

  // --- speculative mutation with exact rollback ---------------------------

  /// Saved per-server state for bitwise-exact restore. Reusable across
  /// calls; each record call clears it first.
  struct Undo {
    struct Entry {
      ServerId server = kNoServer;
      double used_p = 0.0;
      double used_n = 0.0;
      double used_disk = 0.0;
      double load_p = 0.0;
      int hosted = 0;
    };
    std::vector<Entry> entries;
  };

  /// Removes client i's footprint (`ps` must be its current placements in
  /// this view). Mirrors Allocation::remove_footprint's arithmetic.
  void remove_client(ClientId i, const std::vector<Placement>& ps,
                     Undo* undo = nullptr);

  /// Adds client i's footprint. Mirrors Allocation::add_footprint.
  void add_client(ClientId i, const std::vector<Placement>& ps,
                  Undo* undo = nullptr);

  /// Writes the saved entries back verbatim (bitwise-exact rollback).
  void restore(const Undo& undo);

  /// Re-copies server j's aggregates from `alloc`, making the view bitwise
  /// equal to the allocation for that server. Callers that mirror an
  /// Allocation use this after a rollback on the allocation side: the
  /// allocation's remove/add round trip does not restore its aggregates to
  /// the last bit, so mirroring the ops would leave the view on the
  /// pre-rollback values instead of the allocation's actual (drifted) ones.
  void resync_server(const Allocation& alloc, ServerId j);

 private:
  friend class AllocState;

  void record(const std::vector<Placement>& ps, Undo* undo) const;

  const Cloud* cloud_;
  // Mutable residual state (client-only aggregates, background excluded —
  // exactly Allocation::ServerAgg's representation).
  IdVector<ServerId, double> used_p_, used_n_, used_disk_, load_p_;
  IdVector<ServerId, int> hosted_;
  // Immutable per-server constants, flattened for locality.
  IdVector<ServerId, double> bg_p_, bg_n_, bg_disk_, cap_m_;
  IdVector<ServerId, std::uint8_t> keeps_on_;
  // Per-cluster contiguous-range bases (first server id, or -1).
  IdVector<ClusterId, int> contig_base_;
};

}  // namespace cloudalloc::model
