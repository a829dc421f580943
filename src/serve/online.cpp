#include "serve/online.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "alloc/delta_price.h"
#include "alloc/move_engine.h"
#include "common/check.h"
#include "common/prof.h"
#include "model/feasibility.h"

namespace cloudalloc::serve {
namespace {

using alloc::AllocatorOptions;
using alloc::MoveEngine;
using model::ClientId;
using model::ClusterId;
using model::Placement;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

OnlineServer::OnlineServer(model::Cloud universe,
                           const std::vector<ClientId>& initially_present,
                           OnlineOptions options)
    : options_(options),
      cloud_(std::make_unique<model::Cloud>(std::move(universe))),
      present_(static_cast<std::size_t>(cloud_->num_clients()), 0),
      admitted_(static_cast<std::size_t>(cloud_->num_clients()), 0),
      serving_(static_cast<std::size_t>(cloud_->num_clients()), 0),
      admission_(options.admission) {
  CHECK(options_.repair_rounds >= 1);
  CHECK(options_.resolve_churn_fraction > 0.0);
  CHECK(options_.resolve_profit_gap > 0.0);
  for (ClientId i : initially_present) {
    CHECK(i.valid() && i.value() < cloud_->num_clients());
    present_[i.index()] = 1;
  }
}

int OnlineServer::num_present() const {
  int n = 0;
  for (std::uint8_t p : present_) n += p;
  return n;
}

int OnlineServer::num_serving() const {
  int n = 0;
  for (std::uint8_t s : serving_) n += s;
  return n;
}

void OnlineServer::refresh_serving_mask() {
  for (ClientId i : cloud_->client_ids())
    serving_[i.index()] = state_->ledger().is_assigned(i) ? 1 : 0;
}

alloc::AllocatorReport OnlineServer::full_solve() {
  PROF_ZONE("serve.full_solve");
  AllocatorOptions cold = options_.alloc;
  cold.insertable = &present_;
  cold.migration_cost = 0.0;  // batch plans redirect no live traffic
  const alloc::ResourceAllocator allocator(cold);
  alloc::AllocatorResult result = allocator.run(*cloud_);
  state_ = std::make_unique<model::AllocState>(std::move(result.allocation));
  carried_profit_ = result.report.final_profit;
  peak_profit_ = carried_profit_;
  churn_since_resolve_ = 0;
  refresh_serving_mask();
  // The batch optimizer's allow_rejection gate IS the admission decision
  // on this path: entitlement resets to whoever it chose to serve.
  admitted_ = serving_;
  return result.report;
}

EpochStats OnlineServer::start() {
  CHECK_MSG(epoch_ == 0, "start() only once");
  const auto t0 = Clock::now();
  const alloc::AllocatorReport report = full_solve();

  EpochStats stats;
  stats.epoch = 0;
  stats.full_resolve = true;
  stats.rounds_run = report.rounds_run;
  stats.present = num_present();
  stats.serving = num_serving();
  stats.profit = carried_profit_;
  stats.diff.arrived = stats.serving;  // everything placed is new
  stats.wall_ms = ms_since(t0);
  history_.push_back(stats);
  epoch_ = 1;
  return stats;
}

void OnlineServer::offer_to_admission(ClientId i, MoveEngine& engine,
                                      double& profit_now, EpochStats& stats) {
  const MoveEngine::Proposal prop = engine.propose_best(i);
  const double marginal =
      prop.plan ? prop.predicted : AdmissionController::kInfeasible;
  const AdmissionDecision decision = admission_.decide(i, marginal);
  if (decision.admitted) {
    admitted_[i.index()] = 1;
    engine.apply(i, *prop.plan, profit_now);
    serving_[i.index()] = 1;
    ++stats.admitted;
  } else {
    ++stats.rejected;
  }
}

bool OnlineServer::valid_event(const workload::ChurnEvent& event) const {
  const ClientId i = event.client;
  if (!i.valid() || i.value() >= cloud_->num_clients()) return false;
  const bool present = present_[i.index()] != 0;
  // The rate test is Cloud::set_lambda_pred's precondition.
  const bool rate_ok = std::isfinite(event.rate) && event.rate > 0.0;
  switch (event.kind) {
    case workload::ChurnEvent::Kind::kArrival:
      return !present && rate_ok;
    case workload::ChurnEvent::Kind::kDeparture:
      return present;
    case workload::ChurnEvent::Kind::kDemandChange:
      return present && rate_ok;
  }
  return false;
}

void OnlineServer::apply_event(const workload::ChurnEvent& event,
                               MoveEngine& engine,
                               const AllocatorOptions& event_opts,
                               double& profit_now, EpochStats& stats) {
  const ClientId i = event.client;
  switch (event.kind) {
    case workload::ChurnEvent::Kind::kDeparture: {
      CHECK(present_[i.index()]);
      if (state_->ledger().is_assigned(i))
        engine.apply(i, std::nullopt, profit_now);
      present_[i.index()] = 0;
      admitted_[i.index()] = 0;
      serving_[i.index()] = 0;
      ++stats.departures;
      return;
    }
    case workload::ChurnEvent::Kind::kArrival: {
      CHECK(!present_[i.index()]);
      CHECK(!state_->ledger().is_assigned(i));
      present_[i.index()] = 1;
      cloud_->set_lambda_pred(i, event.rate);
      ++stats.arrivals;
      offer_to_admission(i, engine, profit_now, stats);
      return;
    }
    case workload::ChurnEvent::Kind::kDemandChange: {
      CHECK(present_[i.index()]);
      ++stats.demand_changes;
      if (!state_->ledger().is_assigned(i)) {
        // Unserved: rewrite the rate (legal while unassigned). Entitled
        // clients wait for the repair loop to re-place them; the rest are
        // re-offered to admission at the new price.
        cloud_->set_lambda_pred(i, event.rate);
        if (!admitted_[i.index()])
          offer_to_admission(i, engine, profit_now, stats);
        return;
      }
      // Serving: vacate exactly, rewrite the rate, then take the cheaper
      // of staying put (identical placements — no traffic redirected, no
      // penalty) and the best re-placement net of its migration charge
      // against the placements the client actually occupied. Staying is
      // an option only while every slice is still stable at the new rate;
      // a client that can neither stay nor move is left unplaced but
      // admitted, for the repair to re-place.
      const ClusterId old_cluster = state_->ledger().cluster_of(i);
      std::vector<Placement> old_ps = state_->ledger().placements(i);
      engine.apply(i, std::nullopt, profit_now);
      cloud_->set_lambda_pred(i, event.rate);
      const MoveEngine::Proposal prop = engine.propose_best(i);
      const bool can_stay =
          std::all_of(old_ps.begin(), old_ps.end(), [&](const Placement& p) {
            return model::slice_stability(*cloud_, i, p).stable();
          });
      const double stay_score =
          alloc::insertion_delta(state_->view(), i, old_ps);
      const double move_score =
          prop.plan ? prop.predicted - alloc::migration_penalty(
                                           event_opts, old_ps,
                                           prop.plan->placements)
                    : AdmissionController::kInfeasible;
      if (prop.plan && (!can_stay || move_score > stay_score + 1e-12)) {
        engine.apply(i, *prop.plan, profit_now);
      } else if (can_stay) {
        engine.apply(i,
                     alloc::InsertionPlan{old_cluster, std::move(old_ps),
                                          stay_score},
                     profit_now);
      }
      return;
    }
  }
}

EpochStats OnlineServer::step(const std::vector<workload::ChurnEvent>& events) {
  CHECK_MSG(epoch_ >= 1, "call start() first");
  PROF_ZONE("serve.step");
  const auto t0 = Clock::now();
  EpochStats stats;
  stats.epoch = epoch_;
  const model::AllocState::Checkpoint prev =
      state_->checkpoint(carried_profit_);

  // An invalid event changes nothing, so if none is valid against the
  // membership before the epoch, none becomes valid during it.
  if (std::none_of(events.begin(), events.end(),
                   [&](const workload::ChurnEvent& event) {
                     return valid_event(event);
                   })) {
    // Zero-churn fast path: nothing to apply, nothing to repair. The
    // carried state and profit pass through untouched — this is the
    // bit-identity anchor of the warm path.
    stats.invalid_events = static_cast<int>(events.size());
    stats.present = num_present();
    stats.serving = num_serving();
    stats.profit = carried_profit_;
    stats.diff.unchanged = stats.serving;
    stats.wall_ms = ms_since(t0);
    history_.push_back(stats);
    ++epoch_;
    return stats;
  }

  {
    PROF_ZONE("serve.apply_events");
    const AllocatorOptions event_opts = options_.alloc;
    MoveEngine engine(*state_, event_opts);
    double profit_now = state_->profit();
    for (const workload::ChurnEvent& event : events) {
      if (!valid_event(event)) {
        ++stats.invalid_events;
        continue;
      }
      apply_event(event, engine, event_opts, profit_now, stats);
    }
    carried_profit_ = profit_now;
  }
  churn_since_resolve_ +=
      static_cast<int>(events.size()) - stats.invalid_events;
  refresh_serving_mask();

  const double churn_fraction =
      static_cast<double>(churn_since_resolve_) /
      static_cast<double>(std::max(1, num_serving()));
  const bool full =
      churn_fraction > options_.resolve_churn_fraction ||
      carried_profit_ < (1.0 - options_.resolve_profit_gap) * peak_profit_;
  if (full) {
    const alloc::AllocatorReport report = full_solve();
    stats.full_resolve = true;
    stats.rounds_run = report.rounds_run;
  } else {
    PROF_ZONE("serve.warm_repair");
    AllocatorOptions warm = options_.alloc;
    warm.insertable = &admitted_;
    warm.max_local_search_rounds = options_.repair_rounds;
    const alloc::ResourceAllocator allocator(warm);
    const alloc::AllocatorReport report = allocator.improve_state(*state_);
    carried_profit_ = report.final_profit;
    stats.rounds_run = report.rounds_run;
    refresh_serving_mask();
    peak_profit_ = std::max(peak_profit_, carried_profit_);
  }

  stats.present = num_present();
  stats.serving = num_serving();
  stats.profit = carried_profit_;
  stats.diff = model::diff_allocations(prev, state_->ledger());
  stats.wall_ms = ms_since(t0);
  history_.push_back(stats);
  ++epoch_;
  return stats;
}

}  // namespace cloudalloc::serve
