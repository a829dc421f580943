#include "serve/driver.h"

#include <cmath>
#include <vector>

#include "common/check.h"

namespace cloudalloc::serve {
namespace {

std::vector<double> predicted_rates(const model::Cloud& cloud) {
  std::vector<double> rates;
  rates.reserve(static_cast<std::size_t>(cloud.num_clients()));
  for (const auto& client : cloud.clients())
    rates.push_back(client.lambda_pred);
  return rates;
}

}  // namespace

OnlineDriver::OnlineDriver(model::Cloud universe,
                           const std::vector<model::ClientId>& initially_present,
                           const epoch::RatePredictor& prototype,
                           DriverOptions options)
    : options_(options),
      server_(std::move(universe), initially_present, options.server),
      bank_(prototype, predicted_rates(server_.cloud())) {
  CHECK(options_.demand_change_drift >= 0.0);
}

EpochStats OnlineDriver::step(const std::vector<workload::ChurnEvent>& churn,
                              const std::vector<double>& observed_rates) {
  const model::Cloud& cloud = server_.cloud();
  CHECK(static_cast<int>(observed_rates.size()) == cloud.num_clients());
  bank_.observe_all(observed_rates);

  // Clients the external stream already touches keep their stream-given
  // rates; predictor drift must not double-apply on top of them. Ids
  // outside the universe mark nothing: the server rejects those events.
  std::vector<std::uint8_t> mentioned(
      static_cast<std::size_t>(cloud.num_clients()), 0);
  for (const workload::ChurnEvent& event : churn)
    if (event.client.valid() && event.client.value() < cloud.num_clients())
      mentioned[event.client.index()] = 1;

  // Server-applied order: departures, demand changes, arrivals. Derived
  // drift events slot into the middle band, after the external demand
  // changes (stable, id-ordered).
  std::vector<workload::ChurnEvent> events;
  events.reserve(churn.size());
  for (const workload::ChurnEvent& event : churn)
    if (event.kind == workload::ChurnEvent::Kind::kDeparture)
      events.push_back(event);
  for (const workload::ChurnEvent& event : churn)
    if (event.kind == workload::ChurnEvent::Kind::kDemandChange)
      events.push_back(event);
  for (model::ClientId i : cloud.client_ids()) {
    if (mentioned[i.index()] || !server_.is_present(i)) continue;
    const double current = cloud.client(i).lambda_pred;
    const double predicted = bank_.predict(static_cast<int>(i.index()));
    const double drift =
        std::fabs(predicted - current) / std::max(current, 1e-9);
    if (drift <= options_.demand_change_drift) continue;
    events.push_back(
        {workload::ChurnEvent::Kind::kDemandChange, i, predicted});
  }
  for (const workload::ChurnEvent& event : churn)
    if (event.kind == workload::ChurnEvent::Kind::kArrival)
      events.push_back(event);

  return server_.step(events);
}

}  // namespace cloudalloc::serve
