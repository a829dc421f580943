// Client churn streams for the online serving layer: per-epoch sequences
// of typed events (arrivals, departures, demand changes) over a fixed
// universe cloud. The paper's instance is a closed population; churn is
// what turns its per-epoch optimizer into a serving system, so the
// generator lives here next to the rate traces that drive the predicted
// decision epochs (serve::OnlineDriver).
#pragma once

#include <cstdint>
#include <vector>

#include "model/cloud.h"

namespace cloudalloc::workload {

/// One churn event. Interpretation per kind:
///  - kArrival: `client` (currently absent) asks to be served;
///    `rate` is its predicted arrival rate on entry.
///  - kDeparture: `client` (currently present) leaves; `rate` unused (0).
///  - kDemandChange: `client` (currently present) re-forecasts; `rate` is
///    its new predicted arrival rate.
struct ChurnEvent {
  enum class Kind { kArrival, kDeparture, kDemandChange };
  Kind kind = Kind::kArrival;
  model::ClientId client;
  double rate = 0.0;
};

struct ChurnParams {
  int epochs = 8;
  /// Clients present at epoch 0 (the first `initial_clients` ids). The
  /// rest form the arrival pool. Must be <= the cloud's client count.
  int initial_clients = 0;
  /// Poisson mean of arrivals per epoch (drawn from the absent pool;
  /// fewer arrive when the pool runs dry).
  double arrival_rate = 2.0;
  /// Per-epoch probability that a present client departs.
  double departure_probability = 0.05;
  /// Per-epoch probability that a surviving present client re-forecasts.
  double demand_change_probability = 0.10;
  /// Demand changes multiply the client's current rate by a uniform draw
  /// in [drift_lo, drift_hi); arrivals re-enter at their contract rate
  /// scaled the same way.
  double drift_lo = 0.7;
  double drift_hi = 1.4;
  /// All generated rates are floored here (predictors and the queueing
  /// kernels require positive rates).
  double rate_floor = 0.05;
};

/// A full churn scenario: who is present at epoch 0, then one event list
/// per subsequent epoch, each ordered departures -> demand changes ->
/// arrivals (the order the serving layer applies them: free capacity
/// first, then re-price, then admit).
struct ChurnStream {
  std::vector<model::ClientId> initially_present;
  std::vector<std::vector<ChurnEvent>> epochs;
};

/// Deterministic in (cloud, params, seed). Events are always valid
/// against the stream's own presence tracking: arrivals name absent
/// clients, departures and demand changes name present ones, and no
/// client appears in two events of the same epoch.
ChurnStream make_churn_stream(const model::Cloud& cloud,
                              const ChurnParams& params, std::uint64_t seed);

}  // namespace cloudalloc::workload
