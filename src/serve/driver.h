// OnlineDriver: the decision-epoch loop of Section III. It owns an
// OnlineServer plus per-client arrival-rate predictors
// (epoch::PredictorBank) and closes the loop from measurements to events:
// each epoch it feeds the observed arrival rates to the bank, turns
// material prediction drift on present clients into DemandChanged events,
// merges them with the external churn stream (arrivals and departures come
// from the outside world; rate drift comes from the predictors), and steps
// the server. A batch epoch over a fixed population is step({}, observed):
// the server's own churn and profit-gap triggers decide between a warm
// repair and a full re-solve.
#pragma once

#include <vector>

#include "epoch/predictor.h"
#include "serve/online.h"
#include "workload/churn.h"

namespace cloudalloc::serve {

struct DriverOptions {
  OnlineOptions server;
  /// Relative drift |predicted - current| / current above which a present
  /// client's new prediction becomes a DemandChanged event. Re-pricing a
  /// client has a cost; sub-threshold drift is treated as noise.
  double demand_change_drift = 0.10;
};

class OnlineDriver {
 public:
  OnlineDriver(model::Cloud universe,
               const std::vector<model::ClientId>& initially_present,
               const epoch::RatePredictor& prototype,
               DriverOptions options = {});

  const OnlineServer& server() const { return server_; }

  /// Epoch 0: cold solve over the initially-present set.
  EpochStats start() { return server_.start(); }

  /// One epoch: observe -> predict -> derive DemandChanged events for
  /// drifted present clients (skipping any client `churn` already
  /// mentions) -> apply departures, demand changes, then arrivals. Events
  /// naming an id outside the universe pass through to the server, which
  /// skips and counts them in EpochStats::invalid_events.
  /// `observed_rates[i]` is client i's measured rate over the epoch that
  /// just ended (absent clients' entries are fed to their predictors too,
  /// so a returning client re-enters with a warm forecast).
  EpochStats step(const std::vector<workload::ChurnEvent>& churn,
                  const std::vector<double>& observed_rates);

 private:
  DriverOptions options_;
  OnlineServer server_;
  epoch::PredictorBank bank_;
};

}  // namespace cloudalloc::serve
