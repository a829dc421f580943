// ResidualView: the per-server residual state in flat SoA form — free
// shares, free disk, offered processing load, and hosted-client counts.
//
// Every Allocation keeps its per-server aggregates in one of these
// (Allocation::residual()): assign()/clear() update it through
// add_client/remove_client, and the heuristic's hot loops
// (Assign_Distribute probing, delta pricing) read it directly. Copying a
// view is a handful of flat vector copies (no per-client placement
// vectors, no profit caches), so a thread that speculates on its own copy
// pays O(servers), and removing/re-adding one client's footprint is
// O(#placements) on plain arrays.
//
// Exact rollback: add_client/remove_client optionally record the touched
// entries in an Undo; restore() writes the saved values back verbatim, so
// a speculate-then-restore cycle is bitwise lossless (a -= x; a += x; is
// not). The reassignment passes lean on this to probe hundreds of clients
// against one view without accumulating drift, and AllocState's cluster
// savepoints roll back through the same Undo.
//
// Concurrency: every const member is a pure read (the view has no lazy
// caches), so one frozen view may be probed from many threads at once;
// a thread that speculates mutates its own copy.
#pragma once

#include <cstdint>
#include <vector>

#include "model/cloud.h"
#include "model/placement.h"

namespace cloudalloc::model {

class ResidualView {
 public:
  /// The empty view over `cloud`: no client placed, background load only.
  explicit ResidualView(const Cloud& cloud);

  const Cloud& cloud() const { return *cloud_; }

  // --- read API (background load included in the used/free readings) ----

  double used_phi_p(ServerId j) const { return used_p_[j] + bg_p_[j]; }
  double used_phi_n(ServerId j) const { return used_n_[j] + bg_n_[j]; }
  double used_disk(ServerId j) const { return used_disk_[j] + bg_disk_[j]; }
  double free_phi_p(ServerId j) const { return 1.0 - used_phi_p(j); }
  double free_phi_n(ServerId j) const { return 1.0 - used_phi_n(j); }
  double free_disk(ServerId j) const { return cap_m_[j] - used_disk(j); }
  double proc_load(ServerId j) const { return load_p_[j]; }
  bool active(ServerId j) const {
    return hosted_[j] > 0 || keeps_on_[j] != 0;
  }
  int hosted_clients(ServerId j) const { return hosted_[j]; }
  bool keeps_on(ServerId j) const { return keeps_on_[j] != 0; }

  // --- Assign_Distribute's candidate screen -------------------------------

  /// One server class's one-quantum stability floors (eq. 7), per resource.
  struct Floors {
    double p = 0.0;
    double n = 0.0;
  };
  /// What the screen asks of a server on behalf of one client.
  struct Screen {
    double disk = 0.0;               ///< the client's disk need m_i
    ServerId exclude = kNoServer;    ///< never kept
    bool allow_inactive = true;      ///< if false, only active servers
    const Floors* floors = nullptr;  ///< indexed by server class
  };
  /// A kept server, with the readings the screen took.
  struct Candidate {
    ServerId server;
    ServerClassId server_class;
    bool active = false;
    double free_p = 0.0;
    double free_n = 0.0;
  };

  /// One pass over cluster k's servers, in cluster order, reading each
  /// server's class from Cloud::class_index(), that keeps server j when
  /// all four hold:
  ///  - !(free_disk(j) + kEps < s.disk)             (disk, eq. 8);
  ///  - j != s.exclude;
  ///  - s.allow_inactive || active(j);
  ///  - floor_fits(floor, free share) for both of j's class floors.
  /// Writes the kept servers to out[0, n) and returns n; `out` grows to the
  /// cluster's size. The pass has no branch per server: every server is
  /// written to out[n], and n advances only past a kept one.
  std::size_t screen(ClusterId k, const Screen& s,
                     std::vector<Candidate>& out) const;

  // --- speculative mutation with exact rollback ---------------------------

  /// Saved per-server state for bitwise-exact restore. Reusable across
  /// calls; each recording call clears it first.
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
  /// this view; one placement per server). A server left hosting no client
  /// resets its aggregates to exactly zero, so add/remove cycles cannot
  /// leave drift on an empty server.
  void remove_client(ClientId i, const std::vector<Placement>& ps,
                     Undo* undo = nullptr);

  /// Adds client i's footprint.
  void add_client(ClientId i, const std::vector<Placement>& ps,
                  Undo* undo = nullptr);

  /// Records the entries of cluster k's servers into `undo`, so a later
  /// restore() rolls the whole cluster back.
  void save_cluster(ClusterId k, Undo& undo) const;

  /// Writes the saved entries back verbatim (bitwise-exact rollback).
  void restore(const Undo& undo);

 private:
  friend class AllocState;

  Undo::Entry entry(ServerId j) const;
  void record(const std::vector<Placement>& ps, Undo* undo) const;

  const Cloud* cloud_;
  // Mutable residual state (client-only aggregates, background excluded).
  IdVector<ServerId, double> used_p_, used_n_, used_disk_, load_p_;
  IdVector<ServerId, int> hosted_;
  // Immutable per-server constants, flattened for locality.
  IdVector<ServerId, double> bg_p_, bg_n_, bg_disk_, cap_m_;
  IdVector<ServerId, std::uint8_t> keeps_on_;
};

}  // namespace cloudalloc::model
