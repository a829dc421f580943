// Tests of the online serving layer: zero-churn bit-identity against the
// batch solver, admission threshold + hysteresis behavior, thread-count
// determinism of a whole churn run, migration-cost gating, invalid churn
// events, the warm-vs-full-resolve profit contract, and the predictor-
// driven epoch loop (OnlineDriver) over rate traces.
#include "serve/online.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/allocator.h"
#include "epoch/predictor.h"
#include "model/diff.h"
#include "model/feasibility.h"
#include "queueing/gps.h"
#include "serve/driver.h"
#include "workload/churn.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace cloudalloc::serve {
namespace {

using model::ClientId;
using model::Placement;

model::Cloud make_cloud(int clients = 24) {
  workload::ScenarioParams params;
  params.num_clients = clients;
  params.servers_per_cluster = 6;
  return workload::make_scenario(params, 77);
}

std::vector<ClientId> all_clients(const model::Cloud& cloud) {
  std::vector<ClientId> ids;
  for (ClientId i : cloud.client_ids()) ids.push_back(i);
  return ids;
}

workload::ChurnParams busy_churn() {
  workload::ChurnParams params;
  params.epochs = 10;
  params.initial_clients = 14;
  params.arrival_rate = 2.0;
  params.departure_probability = 0.12;
  params.demand_change_probability = 0.2;
  return params;
}

void expect_same_allocation(const model::Allocation& a,
                            const model::Allocation& b) {
  for (ClientId i : a.cloud().client_ids()) {
    ASSERT_EQ(a.is_assigned(i), b.is_assigned(i)) << "client " << i;
    if (!a.is_assigned(i)) continue;
    EXPECT_EQ(a.cluster_of(i), b.cluster_of(i));
    const std::vector<Placement>& pa = a.placements(i);
    const std::vector<Placement>& pb = b.placements(i);
    ASSERT_EQ(pa.size(), pb.size()) << "client " << i;
    for (std::size_t p = 0; p < pa.size(); ++p) {
      EXPECT_EQ(pa[p].server, pb[p].server);
      EXPECT_EQ(pa[p].psi, pb[p].psi);  // bitwise
      EXPECT_EQ(pa[p].phi_p, pb[p].phi_p);
      EXPECT_EQ(pa[p].phi_n, pb[p].phi_n);
    }
  }
}

// --- migration accounting ------------------------------------------------

TEST(RedirectedFraction, MeasuresTrafficThatActuallyMoves) {
  const model::ServerId s0(0), s1(1);
  const std::vector<Placement> at0 = {{s0, 1.0, 0.5, 0.5}};
  const std::vector<Placement> at1 = {{s1, 1.0, 0.5, 0.5}};
  const std::vector<Placement> split = {{s0, 0.4, 0.3, 0.3},
                                        {s1, 0.6, 0.4, 0.4}};
  EXPECT_DOUBLE_EQ(model::redirected_fraction(at0, at0), 0.0);
  EXPECT_DOUBLE_EQ(model::redirected_fraction(at0, at1), 1.0);
  EXPECT_DOUBLE_EQ(model::redirected_fraction(at0, split), 0.6);
  EXPECT_DOUBLE_EQ(model::redirected_fraction(split, at0), 0.6);
  // Full removal redirects everything; insertion from nothing is free.
  EXPECT_DOUBLE_EQ(model::redirected_fraction(at0, {}), 1.0);
  EXPECT_DOUBLE_EQ(model::redirected_fraction({}, at0), 0.0);
  // Share-only resize: psi untouched, no redirection.
  const std::vector<Placement> resized = {{s0, 1.0, 0.9, 0.7}};
  EXPECT_DOUBLE_EQ(model::redirected_fraction(at0, resized), 0.0);
}

// --- admission controller ------------------------------------------------

TEST(AdmissionControllerTest, ThresholdGatesOnMarginalProfit) {
  AdmissionOptions options;
  options.threshold = 2.0;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.decide(ClientId(0), 3.0).admitted);
  EXPECT_FALSE(admission.decide(ClientId(1), 1.9).admitted);
  EXPECT_FALSE(
      admission.decide(ClientId(2), AdmissionController::kInfeasible)
          .admitted);
  EXPECT_EQ(admission.admitted(), 1);
  EXPECT_EQ(admission.rejected(), 2);
  EXPECT_EQ(admission.log().size(), 3u);
}

TEST(AdmissionControllerTest, HysteresisRaisesTheBarAfterARejection) {
  AdmissionOptions options;
  options.threshold = 1.0;
  options.hysteresis = 0.5;
  AdmissionController admission(options);
  EXPECT_DOUBLE_EQ(admission.current_bar(), 1.0);
  // At-threshold marginal admits while the door is open.
  EXPECT_TRUE(admission.decide(ClientId(0), 1.0).admitted);
  // A rejection raises the bar...
  EXPECT_FALSE(admission.decide(ClientId(1), 0.9).admitted);
  EXPECT_DOUBLE_EQ(admission.current_bar(), 1.5);
  // ...so the same at-threshold marginal now bounces (no flapping).
  EXPECT_FALSE(admission.decide(ClientId(2), 1.0).admitted);
  // A clearly profitable client re-opens the door.
  EXPECT_TRUE(admission.decide(ClientId(3), 2.0).admitted);
  EXPECT_DOUBLE_EQ(admission.current_bar(), 1.0);
}

// --- zero-churn bit-identity --------------------------------------------

TEST(OnlineServe, ZeroChurnWarmEpochsAreBitIdenticalToTheBatchSolve) {
  const alloc::AllocatorOptions alloc_opts;  // defaults, migration_cost = 0
  const alloc::ResourceAllocator batch(alloc_opts);
  const model::Cloud reference_cloud = make_cloud();  // outlives reference
  const alloc::AllocatorResult reference = batch.run(reference_cloud);

  OnlineOptions options;
  options.alloc = alloc_opts;
  const model::Cloud universe = make_cloud();
  OnlineServer server(make_cloud(), all_clients(universe), options);
  const EpochStats cold = server.start();
  EXPECT_TRUE(cold.full_resolve);
  EXPECT_EQ(server.profit(), reference.report.final_profit);  // bitwise

  for (int t = 0; t < 3; ++t) {
    const EpochStats stats = server.step({});
    EXPECT_FALSE(stats.full_resolve);
    EXPECT_EQ(stats.rounds_run, 0);
    EXPECT_EQ(stats.profit, reference.report.final_profit);  // bitwise
    EXPECT_EQ(stats.diff.moved, 0);
    EXPECT_EQ(stats.diff.arrived, 0);
    EXPECT_EQ(stats.diff.departed, 0);
  }
  expect_same_allocation(reference.allocation, server.allocation());
}

// --- serving under churn -------------------------------------------------

TEST(OnlineServe, ChurnRunStaysFeasibleAndMasksStayConsistent) {
  const model::Cloud universe = make_cloud(30);
  const workload::ChurnStream stream =
      make_churn_stream(universe, busy_churn(), 11);

  OnlineServer server(make_cloud(30), stream.initially_present, {});
  server.start();
  EXPECT_TRUE(model::is_feasible(server.allocation()));
  for (const auto& events : stream.epochs) {
    const EpochStats stats = server.step(events);
    ASSERT_TRUE(model::is_feasible(server.allocation()));
    EXPECT_GE(stats.present, stats.serving);  // serving is a subset
    for (ClientId i : server.cloud().client_ids()) {
      if (server.is_serving(i)) {
        EXPECT_TRUE(server.is_present(i));
      }
      EXPECT_EQ(server.is_serving(i), server.allocation().is_assigned(i));
    }
    // Every arrival got an admission decision (re-offered rate changes
    // can add more decisions, never fewer).
    EXPECT_GE(stats.admitted + stats.rejected, stats.arrivals);
  }
  EXPECT_EQ(server.history().size(),
            static_cast<std::size_t>(busy_churn().epochs) + 1);
}

/// `valid` with one invalid event of every kind mixed in, each built
/// against the membership at its position (`present` is the membership
/// before the epoch). Returns the mixed list; `invalid` gets its count.
std::vector<workload::ChurnEvent> with_invalid_events(
    const std::vector<workload::ChurnEvent>& valid,
    std::vector<std::uint8_t> present, int& invalid) {
  using Kind = workload::ChurnEvent::Kind;
  const int n = static_cast<int>(present.size());
  const auto first = [&](bool want_present) {
    for (int i = 0; i < n; ++i)
      if ((present[static_cast<std::size_t>(i)] != 0) == want_present)
        return ClientId{i};
    return model::kNoClient;
  };
  const double nan = std::nan("");
  // Each maker returns the invalid event to insert at the current position.
  const std::vector<std::function<workload::ChurnEvent()>> makers = {
      [&] { return workload::ChurnEvent{Kind::kDeparture, first(false), 0.0}; },
      [&] { return workload::ChurnEvent{Kind::kArrival, first(true), 1.0}; },
      [&] {
        return workload::ChurnEvent{Kind::kDemandChange, first(false), 1.0};
      },
      [&] { return workload::ChurnEvent{Kind::kArrival, first(false), 0.0}; },
      [&] {
        return workload::ChurnEvent{Kind::kDemandChange, first(true), nan};
      },
      [&] { return workload::ChurnEvent{Kind::kArrival, first(false), -1.0}; },
      [&] {
        return workload::ChurnEvent{Kind::kDeparture, ClientId{n + 3},
                                    0.0};
      },
      [&] {
        return workload::ChurnEvent{Kind::kDemandChange, model::kNoClient,
                                    1.0};
      },
  };
  std::vector<workload::ChurnEvent> mixed;
  std::size_t next = 0;
  for (const workload::ChurnEvent& event : valid) {
    if (next < makers.size()) mixed.push_back(makers[next++]());
    mixed.push_back(event);
    if (event.kind == Kind::kArrival) present[event.client.index()] = 1;
    if (event.kind == Kind::kDeparture) present[event.client.index()] = 0;
  }
  while (next < makers.size()) mixed.push_back(makers[next++]());
  invalid = static_cast<int>(makers.size());
  return mixed;
}

TEST(OnlineServe, InvalidEventsAreCountedAndChangeNothing) {
  // Each epoch of a churn stream runs twice: as generated on one server,
  // and with invalid events of every kind mixed in on a twin. The twin
  // must skip and count them, and match the plain run bit for bit. With
  // the churn trigger at 0.6, the invalid events would force full
  // re-solves on the twin if they counted as churn.
  const model::Cloud universe = make_cloud(30);
  const workload::ChurnStream stream =
      make_churn_stream(universe, busy_churn(), 11);
  OnlineOptions options;
  options.resolve_churn_fraction = 0.6;
  OnlineServer plain(make_cloud(30), stream.initially_present, options);
  OnlineServer mixed(make_cloud(30), stream.initially_present, options);
  plain.start();
  mixed.start();
  for (const auto& events : stream.epochs) {
    std::vector<std::uint8_t> present;
    for (ClientId i : universe.client_ids())
      present.push_back(mixed.is_present(i) ? 1 : 0);
    int invalid = 0;
    const std::vector<workload::ChurnEvent> hostile =
        with_invalid_events(events, present, invalid);
    const EpochStats want = plain.step(events);
    const EpochStats got = mixed.step(hostile);

    EXPECT_EQ(want.invalid_events, 0);
    EXPECT_EQ(got.invalid_events, invalid);
    EXPECT_EQ(got.full_resolve, want.full_resolve);
    EXPECT_EQ(got.arrivals, want.arrivals);
    EXPECT_EQ(got.departures, want.departures);
    EXPECT_EQ(got.demand_changes, want.demand_changes);
    EXPECT_EQ(got.admitted, want.admitted);
    EXPECT_EQ(got.rejected, want.rejected);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.profit),
              std::bit_cast<std::uint64_t>(want.profit));
    expect_same_allocation(mixed.allocation(), plain.allocation());
    EXPECT_TRUE(model::check_feasibility(mixed.allocation()).empty());
    mixed.state().check_invariants();
    for (ClientId i : universe.client_ids())
      EXPECT_EQ(mixed.is_present(i), plain.is_present(i));
  }

  // An epoch of nothing but invalid events takes the zero-churn path.
  int invalid = 0;
  std::vector<std::uint8_t> present;
  for (ClientId i : universe.client_ids())
    present.push_back(mixed.is_present(i) ? 1 : 0);
  const double before = mixed.profit();
  const EpochStats only = mixed.step(with_invalid_events({}, present, invalid));
  EXPECT_EQ(only.invalid_events, invalid);
  EXPECT_EQ(only.rounds_run, 0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(only.profit),
            std::bit_cast<std::uint64_t>(before));
}

TEST(OnlineServe, HighThresholdRejectsWhatZeroThresholdAdmits) {
  const model::Cloud universe = make_cloud(30);
  workload::ChurnParams churn = busy_churn();
  churn.departure_probability = 0.0;  // pure arrival pressure
  const workload::ChurnStream stream = make_churn_stream(universe, churn, 21);

  OnlineOptions open;
  OnlineOptions closed;
  closed.admission.threshold = 1e9;  // nobody's marginal clears this
  OnlineServer open_server(make_cloud(30), stream.initially_present, open);
  OnlineServer closed_server(make_cloud(30), stream.initially_present,
                             closed);
  open_server.start();
  closed_server.start();
  int open_admitted = 0, closed_admitted = 0;
  for (const auto& events : stream.epochs) {
    open_admitted += open_server.step(events).admitted;
    closed_admitted += closed_server.step(events).admitted;
  }
  EXPECT_GT(open_admitted, 0);
  EXPECT_EQ(closed_admitted, 0);
  EXPECT_EQ(closed_server.admission().admitted(), 0);
}

TEST(OnlineServe, HugeMigrationCostFreezesWarmEpochPlacements) {
  const model::Cloud universe = make_cloud(30);
  workload::ChurnParams churn = busy_churn();
  churn.arrival_rate = 0.5;
  const workload::ChurnStream stream = make_churn_stream(universe, churn, 31);

  OnlineOptions options;
  options.alloc.migration_cost = 1e9;  // no move can ever pay for itself
  options.resolve_churn_fraction = 1e9;  // never fall back to a full solve
  options.resolve_profit_gap = 1e9;
  OnlineServer server(make_cloud(30), stream.initially_present, options);
  server.start();
  double redirected = 0.0;
  for (const auto& events : stream.epochs) {
    const EpochStats stats = server.step(events);
    EXPECT_FALSE(stats.full_resolve);
    redirected += stats.diff.redirected;
    EXPECT_EQ(stats.diff.moved, 0);
  }
  EXPECT_EQ(redirected, 0.0);
}

TEST(OnlineServe, DemandSpikeNeverKeepsUnstablePlacements) {
  OnlineOptions options;
  options.alloc.migration_cost = 1e9;  // staying put always prices best
  options.resolve_churn_fraction = 1e9;  // stay on the warm path
  options.resolve_profit_gap = 1e9;
  const model::Cloud universe = make_cloud(30);
  OnlineServer server(make_cloud(30), all_clients(universe), options);
  server.start();
  ClientId spiked = model::kNoClient;
  for (ClientId i : server.cloud().client_ids())
    if (server.is_serving(i)) spiked = i;
  ASSERT_NE(spiked, model::kNoClient);

  // Twice the rate at which the fastest stage of any slice saturates:
  // every slice of the current placements is unstable at the new rate.
  const model::Client& c = server.cloud().client(spiked);
  double rate = 0.0;
  for (const Placement& p : server.allocation().placements(spiked)) {
    const model::ServerClass& sc = server.cloud().server_class_of(p.server);
    const double mu_p = queueing::gps_service_rate(units::Share{p.phi_p},
                                                   units::WorkRate{sc.cap_p},
                                                   units::Work{c.alpha_p})
                            .value();
    const double mu_n = queueing::gps_service_rate(units::Share{p.phi_n},
                                                   units::WorkRate{sc.cap_n},
                                                   units::Work{c.alpha_n})
                            .value();
    rate = std::max(rate, 2.0 * std::max(mu_p, mu_n) / p.psi);
  }
  const workload::ChurnEvent spike{workload::ChurnEvent::Kind::kDemandChange,
                                   spiked, rate};
  const EpochStats stats = server.step({spike});
  EXPECT_EQ(stats.demand_changes, 1);
  for (const model::Violation& v :
       model::check_feasibility(server.allocation()))
    ADD_FAILURE() << v.describe();
  server.state().check_invariants();
  EXPECT_TRUE(server.is_present(spiked));
}

TEST(OnlineServe, HeavyChurnTriggersAFullResolve) {
  const model::Cloud universe = make_cloud(30);
  const workload::ChurnStream stream =
      make_churn_stream(universe, busy_churn(), 41);

  OnlineOptions options;
  options.resolve_churn_fraction = 0.01;  // hair trigger
  OnlineServer server(make_cloud(30), stream.initially_present, options);
  server.start();
  bool any_full = false;
  for (const auto& events : stream.epochs)
    if (server.step(events).full_resolve && !events.empty()) any_full = true;
  EXPECT_TRUE(any_full);
}

TEST(OnlineServe, WarmStartTracksTheAlwaysResolveBaselineProfit) {
  const model::Cloud universe = make_cloud(30);
  const workload::ChurnStream stream =
      make_churn_stream(universe, busy_churn(), 51);

  OnlineOptions warm;
  warm.resolve_churn_fraction = 1e9;  // stay on the warm path
  warm.resolve_profit_gap = 1e9;
  OnlineOptions full;
  full.resolve_churn_fraction = 1e-9;  // any churn forces a full solve

  OnlineServer warm_server(make_cloud(30), stream.initially_present, warm);
  OnlineServer full_server(make_cloud(30), stream.initially_present, full);
  warm_server.start();
  full_server.start();
  for (const auto& events : stream.epochs) {
    warm_server.step(events);
    full_server.step(events);
  }
  // The warm path must hold the overwhelming share of the from-scratch
  // profit (the bench quantifies the latency side of this trade).
  EXPECT_GE(warm_server.profit(), 0.9 * full_server.profit());
}

// --- determinism (also runs under TSan in CI) ----------------------------

struct RunResult {
  double profit = 0.0;
  std::vector<AdmissionDecision> decisions;
};

RunResult run_stream(const workload::ChurnStream& stream, int threads,
                     const model::Allocation** out_alloc,
                     std::vector<OnlineServer>& keep_alive) {
  OnlineOptions options;
  options.alloc.num_threads = threads;
  options.admission.threshold = 0.5;
  options.admission.hysteresis = 0.25;
  keep_alive.emplace_back(make_cloud(30), stream.initially_present, options);
  OnlineServer& server = keep_alive.back();
  server.start();
  for (const auto& events : stream.epochs) server.step(events);
  *out_alloc = &server.allocation();
  return {server.profit(), server.admission().log()};
}

TEST(OnlineChurn, DeterministicAcrossThreadCounts) {
  const model::Cloud universe = make_cloud(30);
  const workload::ChurnStream stream =
      make_churn_stream(universe, busy_churn(), 61);

  std::vector<OnlineServer> servers;
  servers.reserve(3);
  const model::Allocation* alloc1 = nullptr;
  const model::Allocation* alloc4 = nullptr;
  const model::Allocation* alloc8 = nullptr;
  const RunResult r1 = run_stream(stream, 1, &alloc1, servers);
  const RunResult r4 = run_stream(stream, 4, &alloc4, servers);
  const RunResult r8 = run_stream(stream, 8, &alloc8, servers);

  EXPECT_EQ(r1.profit, r4.profit);  // bitwise
  EXPECT_EQ(r1.profit, r8.profit);
  ASSERT_EQ(r1.decisions.size(), r4.decisions.size());
  ASSERT_EQ(r1.decisions.size(), r8.decisions.size());
  for (std::size_t d = 0; d < r1.decisions.size(); ++d) {
    for (const RunResult* other : {&r4, &r8}) {
      EXPECT_EQ(r1.decisions[d].client, other->decisions[d].client);
      EXPECT_EQ(r1.decisions[d].admitted, other->decisions[d].admitted);
      EXPECT_EQ(r1.decisions[d].marginal_profit,
                other->decisions[d].marginal_profit);  // bitwise
      EXPECT_EQ(r1.decisions[d].bar, other->decisions[d].bar);
    }
  }
  expect_same_allocation(*alloc1, *alloc4);
  expect_same_allocation(*alloc1, *alloc8);
}

// --- the online driver ---------------------------------------------------

TEST(OnlineDriverTest, DerivesDemandChangesFromPredictionDrift) {
  const model::Cloud universe = make_cloud();
  DriverOptions options;
  options.demand_change_drift = 0.1;
  OnlineDriver driver(make_cloud(), all_clients(universe),
                      epoch::EwmaPredictor(1.0, 1.0), options);
  driver.start();

  // Every client's demand jumps 50%: alpha = 1 EWMA predicts the jump
  // verbatim, far past the 10% drift gate.
  std::vector<double> observed;
  for (const auto& client : universe.clients())
    observed.push_back(client.lambda_pred * 1.5);
  const EpochStats stats = driver.step({}, observed);
  EXPECT_GT(stats.demand_changes, 0);
  // Every client changed at once: far past the churn-fraction trigger.
  EXPECT_TRUE(stats.full_resolve);
  EXPECT_TRUE(model::is_feasible(driver.server().allocation()));

  // Steady observations afterwards: drift below the gate, no events.
  const EpochStats quiet = driver.step({}, observed);
  EXPECT_EQ(quiet.demand_changes, 0);
}

TEST(OnlineDriverTest, OutOfRangeClientIdsAreCountedNotIndexed) {
  // Departures naming -1, N and 1000000 can neither be marked nor applied:
  // the driver passes them on, the server skips and counts them, and the
  // epoch lands exactly where it lands without them.
  const model::Cloud universe = make_cloud();
  const int n = universe.num_clients();
  std::vector<double> observed;  // every fourth client's demand jumps 30%
  for (const auto& client : universe.clients())
    observed.push_back(client.lambda_pred *
                       (client.id.value() % 4 == 0 ? 1.3 : 1.0));

  OnlineDriver clean(make_cloud(), all_clients(universe),
                     epoch::EwmaPredictor(1.0, 1.0));
  OnlineDriver noisy(make_cloud(), all_clients(universe),
                     epoch::EwmaPredictor(1.0, 1.0));
  clean.start();
  noisy.start();
  const EpochStats want = clean.step({}, observed);
  std::vector<workload::ChurnEvent> bad;
  for (const ClientId i : {ClientId{-1}, ClientId{n}, ClientId{1000000}})
    bad.push_back({workload::ChurnEvent::Kind::kDeparture, i, 0.0});
  const EpochStats got = noisy.step(bad, observed);

  EXPECT_EQ(got.invalid_events, 3);
  EXPECT_EQ(want.invalid_events, 0);
  EXPECT_GT(got.demand_changes, 0);
  EXPECT_EQ(got.demand_changes, want.demand_changes);
  EXPECT_EQ(got.full_resolve, want.full_resolve);
  EXPECT_EQ(got.profit, want.profit);  // bitwise
  expect_same_allocation(noisy.server().allocation(),
                         clean.server().allocation());
}

TEST(OnlineDriverTest, CorruptObservationsKeepForecastsFiniteAndPositive) {
  // Prediction-error injection: a broken meter reports NaN, a counter
  // glitch reports a negative rate, an overflow reports +inf. None of it
  // may reach the optimizer: every rate stays finite and positive, the
  // epoch completes, and the allocation stays feasible.
  const model::Cloud universe = make_cloud();
  OnlineDriver driver(make_cloud(), all_clients(universe),
                      epoch::EwmaPredictor(0.5, 1.0));
  driver.start();
  std::vector<double> observed(
      static_cast<std::size_t>(universe.num_clients()), 1.0);
  observed[3] = std::numeric_limits<double>::quiet_NaN();
  observed[7] = -4.0;
  observed[11] = std::numeric_limits<double>::infinity();
  const EpochStats stats = driver.step({}, observed);
  // A derived event carrying a non-finite or non-positive rate would be
  // skipped as invalid, so this also pins the forecasts themselves.
  EXPECT_EQ(stats.invalid_events, 0);
  for (const auto& client : driver.server().cloud().clients()) {
    EXPECT_TRUE(std::isfinite(client.lambda_pred)) << client.id;
    EXPECT_GT(client.lambda_pred, 0.0) << client.id;
  }
  EXPECT_TRUE(model::is_feasible(driver.server().allocation()));
}

TEST(OnlineDriverTest, SeededTraceDecisionsAreBitwiseRepeatable) {
  // Two drivers over one seeded drifting trace make the same warm/full
  // decisions and land on bitwise-equal profits: the driver is a pure
  // function of its observations.
  const model::Cloud universe = make_cloud(20);
  workload::TraceParams trace_params;
  trace_params.epochs = 6;
  trace_params.amplitude = 0.35;
  trace_params.spike_probability = 0.05;
  const auto trace = workload::make_rate_trace(universe, trace_params, 55);

  OnlineDriver a(make_cloud(20), all_clients(universe),
                 epoch::HoltPredictor(0.6, 0.3, 1.0));
  OnlineDriver b(make_cloud(20), all_clients(universe),
                 epoch::HoltPredictor(0.6, 0.3, 1.0));
  EXPECT_EQ(a.start().profit, b.start().profit);
  int full = 0, warm = 0;
  for (const auto& observed : trace) {
    const EpochStats ra = a.step({}, observed);
    const EpochStats rb = b.step({}, observed);
    EXPECT_EQ(ra.full_resolve, rb.full_resolve);
    EXPECT_EQ(ra.demand_changes, rb.demand_changes);
    EXPECT_EQ(ra.profit, rb.profit);  // bitwise
    (ra.full_resolve ? full : warm) += 1;
  }
  // The trace must exercise BOTH branches, or this pin proves less than
  // it claims.
  EXPECT_GT(full, 0);
  EXPECT_GT(warm, 0);
  expect_same_allocation(a.server().allocation(), b.server().allocation());
}

TEST(OnlineDriverTest, DiurnalTraceStaysFeasibleAndConsistent) {
  // A diurnal trace with noise and spikes, end to end: after every epoch
  // the allocation passes the independent feasibility audit and the engine
  // state its from-scratch invariant check.
  const model::Cloud universe = make_cloud();
  workload::TraceParams trace_params;
  trace_params.epochs = 8;
  trace_params.spike_probability = 0.05;
  const auto trace = workload::make_rate_trace(universe, trace_params, 9);

  OnlineDriver driver(make_cloud(), all_clients(universe),
                      epoch::HoltPredictor(0.6, 0.3, 1.0));
  driver.start();
  for (const auto& observed : trace) {
    const EpochStats stats = driver.step({}, observed);
    EXPECT_GT(stats.profit, 0.0) << "epoch " << stats.epoch;
    EXPECT_TRUE(model::check_feasibility(driver.server().allocation()).empty())
        << "epoch " << stats.epoch;
    driver.server().state().check_invariants();
  }
  EXPECT_EQ(driver.server().history().size(), trace.size() + 1);
}

}  // namespace
}  // namespace cloudalloc::serve
