#include "alloc/allocator.h"

#include <chrono>
#include <cmath>
#include <memory>

#include "alloc/adjust_dispersion.h"
#include "alloc/adjust_shares.h"
#include "alloc/initial.h"
#include "alloc/reassign.h"
#include "alloc/server_power.h"
#include "common/prof.h"
#include "common/rng.h"
#include "model/alloc_state.h"
#include "dist/parallel_eval.h"
#include "dist/thread_pool.h"

namespace cloudalloc::alloc {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Pool for the parallel evaluation engine; null when one worker suffices
/// (ParallelEval then runs everything inline — same results either way).
/// The pool is the process-wide shared one: online epochs and repeated
/// solves reuse warm workers instead of spawning and joining threads per
/// call.
dist::ThreadPool* make_pool(const AllocatorOptions& options) {
  const int workers = dist::resolve_workers(options.num_threads);
  if (workers <= 1) return nullptr;
  return &dist::ThreadPool::shared(workers);
}

}  // namespace

ResourceAllocator::ResourceAllocator(AllocatorOptions options)
    : options_(options) {}

AllocatorResult ResourceAllocator::run(const model::Cloud& cloud) const {
  Rng rng(options_.seed);
  dist::ThreadPool* pool = make_pool(options_);
  const dist::ParallelEval eval(pool);
  model::Allocation initial = [&] {
    PROF_ZONE("alloc.initial");
    return build_initial_solution(cloud, options_, rng, eval);
  }();
  model::AllocState state(std::move(initial));
  AllocatorReport report = improve_state(state);
  return AllocatorResult{std::move(state).release(), std::move(report)};
}

AllocatorResult ResourceAllocator::improve(model::Allocation initial) const {
  model::AllocState state(std::move(initial));
  AllocatorReport report = improve_state(state);
  return AllocatorResult{std::move(state).release(), std::move(report)};
}

AllocatorReport ResourceAllocator::improve_state(
    model::AllocState& state) const {
  const double initial_profit = state.profit();
  const auto start = Clock::now();
  dist::ThreadPool* pool = make_pool(options_);
  const dist::ParallelEval eval(pool);
  AllocatorReport report;
  report.initial_profit = initial_profit;

  // The epoch deadline is checked between passes, not just per round: one
  // long round must not blow the budget the predictions were made for.
  const auto over_budget = [&] {
    return options_.time_budget_ms > 0.0 &&
           seconds_since(start) * 1000.0 >= options_.time_budget_ms;
  };

  // One engine for the whole local search: every phase mutates the
  // caller's ledger+view pair, and the best round survives as a placement
  // checkpoint (no Allocation clones anywhere in the loop).
  // The share rebalance is applied unconditionally (see adjust_shares.cpp),
  // so a round can transiently dip; keep the best state ever seen.
  model::AllocState::Checkpoint best = state.checkpoint(initial_profit);
  double best_profit = initial_profit;
  int stalled_rounds = 0;
  for (int round = 0; round < options_.max_local_search_rounds; ++round) {
    RoundTrace trace;
    trace.round = round;
    if (options_.enable_adjust_shares) {
      PROF_ZONE("alloc.adjust_shares");
      trace.delta_shares = adjust_all_shares(state, options_);
      state.debug_check_invariants();
      trace.truncated = over_budget();
    }
    if (!trace.truncated && options_.enable_adjust_dispersion) {
      PROF_ZONE("alloc.adjust_dispersion");
      trace.delta_dispersion = adjust_all_dispersions(state, options_);
      state.debug_check_invariants();
      trace.truncated = over_budget();
    }
    if (!trace.truncated) {
      PROF_ZONE("alloc.server_power");
      trace.delta_power = adjust_server_power(state, options_);
      state.debug_check_invariants();
      trace.truncated = over_budget();
    }
    if (!trace.truncated && options_.enable_reassign) {
      PROF_ZONE("alloc.reassign");
      trace.delta_reassign = reassign_pass_snapshot(state, options_, eval);
      state.debug_check_invariants();
      trace.truncated = over_budget();
    }
    if (!trace.truncated && options_.allow_rejection) {
      PROF_ZONE("alloc.drop_unprofitable");
      trace.delta_reassign += drop_unprofitable_clients(state, options_);
      state.debug_check_invariants();
      trace.truncated = over_budget();
    }

    const double profit_after = state.profit();
    trace.profit_after = profit_after;
    report.rounds.push_back(trace);
    report.rounds_run = round + 1;
    const double significant =
        options_.steady_tolerance * std::max(std::fabs(best_profit), 1.0);
    if (profit_after > best_profit + significant) {
      stalled_rounds = 0;
    } else {
      ++stalled_rounds;
    }
    if (profit_after > best_profit) {
      best_profit = profit_after;
      best = state.checkpoint(profit_after);
    }

    if (trace.truncated) break;  // epoch deadline
    // Rounds can dip (unconditional share rebalance) before a later round
    // recovers more; stop only after two rounds without a new best.
    if (stalled_rounds >= 2) break;
  }

  // Materialize the best checkpoint once, at the report boundary, and
  // leave the engine holding it (warm starts keep improving from here).
  // The reported profit is the carried best-round scalar, exactly as
  // before.
  state.adopt(model::AllocState(state.materialize(best)));
  report.final_profit = best_profit;
  report.active_servers = state.ledger().num_active_servers();
  for (model::ClientId i : state.cloud().client_ids())
    if (!state.ledger().is_assigned(i)) ++report.unassigned_clients;
  report.wall_seconds = seconds_since(start);
  return report;
}

}  // namespace cloudalloc::alloc
