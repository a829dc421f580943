// OnlineServer: the online serving layer over the per-epoch optimizer.
//
// A batch solve (alloc::ResourceAllocator::run) builds an allocation from
// scratch. This layer instead keeps ONE long-lived allocation engine
// (model::AllocState) over a fixed "universe" cloud of every client that
// could ever show up, and advances it by applying typed churn events
// between epochs (serve::OnlineDriver derives the rate-drift events from
// per-client predictors):
//
//   - ClientArrived: the arrival is priced by the delta pricer (its
//     marginal profit at the best feasible placement, MoveEngine::
//     propose_best) and admitted or rejected by the AdmissionController's
//     threshold + hysteresis bar. Admitted clients are placed through the
//     engine; rejected ones stay present but unserved.
//   - ClientDeparted: an exact delta-priced removal.
//   - DemandChanged: the client is vacated, its predicted rate rewritten
//     in place (Cloud::set_lambda_pred — legal only while unassigned),
//     and the cheaper of "stay" (identical placements, no redirection)
//     and "move" (best re-placement, charged migration_penalty against
//     the old placements) is applied. Rate changes for present-but-
//     unserved clients are re-offered to admission at the new price.
//
// An event that cannot apply — an unknown client id, an arrival of a
// present client, a departure or demand change of an absent one, or a rate
// that is not finite and positive — is skipped before it touches any state
// and counted in EpochStats::invalid_events. It does not count as churn.
//
// After the events, the epoch warm-starts the repair loop from the carried
// allocation (ResourceAllocator::improve_state with a small round budget
// and migration-aware move pricing), falling back to a full batch re-solve
// only when a trigger fires: cumulative churn since the last full solve
// exceeds a fraction of the serving population, or carried profit falls a
// configured gap below its peak since that solve. A zero-churn epoch takes
// a fast path that touches nothing — which is what makes the warm path
// bit-identical to the batch solve in the no-churn limit (pinned by
// tests/test_online.cpp).
//
// Membership is three masks over the universe:
//   present_  — in the system (arrived, not departed),
//   admitted_ — entitled to service (cleared on departure; a full
//               re-solve resets it to the solver's own admission picks),
//   serving_  — currently assigned in the ledger (derived).
// Warm repair may only (re)insert admitted clients; a full re-solve may
// insert anyone present (the batch optimizer's allow_rejection gate is
// the admission decision there).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/allocator.h"
#include "model/alloc_state.h"
#include "model/cloud.h"
#include "model/diff.h"
#include "serve/admission.h"
#include "workload/churn.h"

namespace cloudalloc::alloc {
class MoveEngine;  // alloc/move_engine.h; only referenced here
}

namespace cloudalloc::serve {

struct OnlineOptions {
  /// Base allocator configuration. migration_cost prices warm-epoch moves;
  /// it is forced to zero for cold solves and full re-solves (a batch plan
  /// redirects no live traffic — realized migration is REPORTED via the
  /// epoch diff, never charged to the batch objective).
  alloc::AllocatorOptions alloc;
  AdmissionOptions admission;
  /// Local-search round budget of a warm-started epoch's repair loop
  /// (replaces alloc.max_local_search_rounds on the warm path only).
  int repair_rounds = 2;
  /// Full re-solve when events applied since the last full solve exceed
  /// this fraction of the serving population.
  double resolve_churn_fraction = 0.5;
  /// Full re-solve when carried profit drops below (1 - gap) x the peak
  /// profit seen since the last full solve.
  double resolve_profit_gap = 0.10;
};

struct EpochStats {
  int epoch = 0;
  int arrivals = 0;
  /// Admission decisions this epoch (arrivals plus re-offered demand
  /// changes of unserved clients).
  int admitted = 0;
  int rejected = 0;
  int departures = 0;
  int demand_changes = 0;
  /// Events skipped because they could not apply (see the file comment).
  int invalid_events = 0;
  bool full_resolve = false;
  int rounds_run = 0;  ///< repair rounds (warm) or solve rounds (full)
  int present = 0;
  int serving = 0;
  double profit = 0.0;  ///< carried scalar, exactly as the reports track it
  /// Migration accounting vs the previous epoch's placements.
  model::AllocationDiff diff;
  double wall_ms = 0.0;
};

class OnlineServer {
 public:
  /// Takes ownership of the universe cloud. `initially_present` are in
  /// the system at epoch 0; everyone else is an arrival candidate.
  OnlineServer(model::Cloud universe,
               const std::vector<model::ClientId>& initially_present,
               OnlineOptions options = {});

  const model::Cloud& cloud() const { return *cloud_; }

  /// The allocation currently in force (valid after start()).
  const model::Allocation& allocation() const { return state_->ledger(); }

  /// The engine state behind allocation(), for invariant checks.
  const model::AllocState& state() const { return *state_; }

  /// Carried profit scalar of the allocation in force.
  double profit() const { return carried_profit_; }

  bool is_present(model::ClientId i) const { return present_[i.index()] != 0; }
  bool is_serving(model::ClientId i) const { return serving_[i.index()] != 0; }
  int num_present() const;
  int num_serving() const;

  /// Epoch 0: cold batch solve over the initially-present set. With every
  /// client present this is bit-identical to ResourceAllocator::run on
  /// the same cloud and options.
  EpochStats start();

  /// Advances one epoch: applies `events` through the engine, then warm-
  /// repairs or fully re-solves per the triggers above. An event list with
  /// no valid event takes the zero-churn fast path (no repair, profit
  /// carried).
  EpochStats step(const std::vector<workload::ChurnEvent>& events);

  const std::vector<EpochStats>& history() const { return history_; }
  const AdmissionController& admission() const { return admission_; }

 private:
  /// Whether `event` can apply to the current membership.
  bool valid_event(const workload::ChurnEvent& event) const;
  void apply_event(const workload::ChurnEvent& event,
                   alloc::MoveEngine& engine,
                   const alloc::AllocatorOptions& event_opts,
                   double& profit_now, EpochStats& stats);
  /// Prices client i's best placement and runs it through admission;
  /// places it on admit. Shared by arrivals and re-offered rate changes.
  void offer_to_admission(model::ClientId i, alloc::MoveEngine& engine,
                          double& profit_now, EpochStats& stats);
  /// Batch solve over the present set; replaces the engine state.
  alloc::AllocatorReport full_solve();
  void refresh_serving_mask();

  OnlineOptions options_;
  std::unique_ptr<model::Cloud> cloud_;
  std::unique_ptr<model::AllocState> state_;
  std::vector<std::uint8_t> present_;
  std::vector<std::uint8_t> admitted_;
  std::vector<std::uint8_t> serving_;
  AdmissionController admission_;
  double carried_profit_ = 0.0;
  double peak_profit_ = 0.0;    ///< since the last full solve
  int churn_since_resolve_ = 0;
  std::vector<EpochStats> history_;
  int epoch_ = 0;
};

}  // namespace cloudalloc::serve
