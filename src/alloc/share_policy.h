// Share-sizing policy shared by the greedy insertion and the local
// search's share-rebalance ceiling.
//
// A slice's GPS share is its load plus *slack*; the slack determines the
// M/M/1 sojourn (T = 1/slack_rate). Two forces bound the slack:
//  * delay quality — slack_rate = 1/(theta * zc) puts the per-stage
//    sojourn at a fixed fraction theta of the client's utility
//    zero-crossing zc;
//  * fleet economy — the whole cloud only has (capacity - demand) work
//    units of slack to hand out; giving each client more than its fair
//    slice starves late-arriving clients entirely (they go unserved).
//
// preferred_share() therefore grants min(delay-target slack, per-client
// fleet slack budget), expressed in work units so the size is invariant
// to how the client's traffic is split over servers. share_cap() (the
// KKT rebalance ceiling) allows a bounded multiple, so rebalancing can
// polish shares without freezing servers at 100% utilization and blocking
// all future moves (DESIGN.md [interp]).
#pragma once

#include <algorithm>
#include <cmath>

#include "alloc/options.h"
#include "common/check.h"
#include "common/mathutil.h"
#include "common/units.h"
#include "model/cloud.h"

namespace cloudalloc::alloc {

/// theta above: a fresh slice's share aims for a per-stage sojourn time of
/// this fraction of the client's utility zero-crossing ([interp] — the scan
/// lost the paper's exact share-sizing constant).
constexpr double kDelayTargetFraction = 0.15;

/// Cloud-wide slack budgets, one per resource: work-units/second of slack
/// a single client may claim, = safety * (total capacity - total demand)
/// / num_clients, floored at a small positive value.
struct ShareSizing {
  units::WorkRate slack_work_p{1.0};
  units::WorkRate slack_work_n{1.0};

  static ShareSizing from(const model::Cloud& cloud);
};

/// Preferred share for a slice with Poisson arrivals `arrivals` on a
/// resource of capacity `cap`, per-request work `alpha`, serving a client
/// whose utility zero-crossing is `zc` (+inf for flat utilities).
/// `slack_work` is the resource's per-client budget from ShareSizing. The
/// result is NOT clamped to the stability floor or free capacity — callers
/// do that with their local bounds.
/// `psi` is the slice's fraction of the client's traffic: the slack
/// budget is scaled by psi so a split client consumes exactly one budget
/// in total (and the resulting delay penalty for splitting steers the
/// insertion DP toward concentration, as the paper's local search does).
/// Inline: the insertion scorer evaluates this over a million times per
/// allocator run.
inline units::Share preferred_share(units::ArrivalRate arrivals, double psi,
                                    units::WorkRate cap, units::Work alpha,
                                    units::Time zc,
                                    units::WorkRate slack_work) {
  CHECK(cap.value() > 0.0);
  CHECK(alpha.value() > 0.0);
  CHECK(psi > 0.0 && psi <= 1.0 + 1e-9);
  units::WorkRate slack = psi * slack_work;
  if (std::isfinite(zc.value()) && zc.value() > 0.0) {
    // Delay-target slack in work units: slack_rate = 1/(theta*zc), times
    // alpha to convert requests/s to work/s.
    const units::WorkRate delay_slack =
        alpha / (kDelayTargetFraction * zc);
    slack = std::min(slack, delay_slack);
  }
  return units::Share{(arrivals * alpha + slack) / cap};
}

/// Ceiling for the share-rebalance step: opts.share_growth times the
/// preferred share.
inline units::Share share_cap(units::ArrivalRate arrivals, double psi,
                              units::WorkRate cap, units::Work alpha,
                              units::Time zc, units::WorkRate slack_work,
                              const AllocatorOptions& opts) {
  return opts.share_growth *
         preferred_share(arrivals, psi, cap, alpha, zc, slack_work);
}

/// Batched form of Assign_Distribute's per-quantum share sizing: for every
/// g = 1..G it computes arrivals[g] = (g/G) * lambda and phi[g] = the
/// size_share result (stability floor, preferred size, clamp to the free
/// capacity) for one resource, and returns the longest feasible prefix
/// gmax (the floor fits the free share for every g <= gmax; feasibility is
/// monotone in g). Entries past gmax are unspecified; entry 0 is untouched.
///
/// The kernel runs width-dispatched SIMD lanes (common/simd.h) in a TU
/// compiled with -ffp-contract=off, and is operation-for-operation the
/// scalar preferred_share/gps_min_share/clamp chain — the filled entries
/// are bitwise identical to the historical per-g scalar loop at any lane
/// width. `arrivals` and `phi` must each hold at least G + 1 entries.
int size_share_grid(units::ArrivalRate lambda, int G, units::WorkRate cap,
                    units::Work alpha, units::Time zc,
                    units::WorkRate slack_work, const AllocatorOptions& opts,
                    double free_share, units::ArrivalRate* arrivals,
                    units::Share* phi);

/// size_share_grid's stability floor at g = 1 for the same arguments,
/// from the same expression in the same -ffp-contract=off TU — so
/// floor_fits(one_quantum_floor(...), free) is false exactly when
/// size_share_grid(..., free, ...) returns 0 at every lane width.
double one_quantum_floor(units::ArrivalRate lambda, int G, units::WorkRate cap,
                         units::Work alpha, const AllocatorOptions& opts);

}  // namespace cloudalloc::alloc
