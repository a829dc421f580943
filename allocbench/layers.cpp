#include "layers.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "alloc/adjust_dispersion.h"
#include "alloc/adjust_shares.h"
#include "alloc/assign_distribute.h"
#include "alloc/initial.h"
#include "alloc/move_engine.h"
#include "alloc/reassign.h"
#include "alloc/server_power.h"
#include "common/check.h"
#include "common/rng.h"
#include "dist/parallel_eval.h"
#include "dist/thread_pool.h"
#include "queueing/batch.h"

namespace allocbench {
namespace {

namespace units = cloudalloc::units;
using model::ClientId;

/// Clients the move probes look at: up to `n` assigned clients, evenly
/// spread over the id range so the sample is the same on every run.
std::vector<ClientId> client_sample(const model::Allocation& ledger, int n) {
  std::vector<ClientId> assigned;
  for (ClientId i : ledger.cloud().client_ids())
    if (ledger.is_assigned(i)) assigned.push_back(i);
  const std::size_t stride =
      std::max<std::size_t>(1, assigned.size() / static_cast<std::size_t>(n));
  std::vector<ClientId> out;
  for (std::size_t k = 0; k < assigned.size() && out.size() < std::size_t(n);
       k += stride)
    out.push_back(assigned[k]);
  return out;
}

double frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Replay replay_solve(const model::Cloud& cloud,
                    const alloc::AllocatorOptions& opts, Tracer& tracer,
                    Result& result) {
  // The replay models neither epoch deadlines nor verbose logging.
  CHECK(opts.time_budget_ms <= 0.0);
  Replay out;
  const auto t0 = Clock::now();
  int on_calls = 0, on_commits = 0, off_calls = 0, off_commits = 0;
  double reassign_gain = 0.0;
  {
    auto root = tracer.span("solve");
    const int workers = cloudalloc::dist::resolve_workers(opts.num_threads);
    cloudalloc::dist::ThreadPool* pool =
        workers > 1 ? &cloudalloc::dist::ThreadPool::shared(workers) : nullptr;
    const cloudalloc::dist::ParallelEval eval(pool);
    cloudalloc::Rng rng(opts.seed);
    model::Allocation initial = [&] {
      auto span = tracer.span("alloc.initial");
      return alloc::build_initial_solution(cloud, opts, rng, eval);
    }();

    auto state = std::make_unique<model::AllocState>(std::move(initial));
    double initial_profit = 0.0;
    model::AllocState::Checkpoint best;
    {
      auto span = tracer.span("model.profit");
      initial_profit = state->profit();
    }
    {
      auto span = tracer.span("model.checkpoint");
      best = state->checkpoint(initial_profit);
    }
    // The local-search loop of ResourceAllocator::improve_state, call for
    // call: same phase order, same best-round and stall rules.
    double best_profit = initial_profit;
    int stalled_rounds = 0;
    for (int round = 0; round < opts.max_local_search_rounds; ++round) {
      if (opts.enable_adjust_shares) {
        auto span = tracer.span("alloc.adjust_shares");
        alloc::adjust_all_shares(*state, opts);
      }
      if (opts.enable_adjust_dispersion) {
        auto span = tracer.span("alloc.adjust_dispersion");
        alloc::adjust_all_dispersions(*state, opts);
      }
      {
        auto span = tracer.span("alloc.server_power");
        for (model::ClusterId k : cloud.cluster_ids()) {
          if (opts.enable_turn_on) {
            auto call = tracer.span("alloc.turn_on");
            ++on_calls;
            if (alloc::turn_on_servers(*state, k, opts) > 0.0) ++on_commits;
          }
          if (opts.enable_turn_off) {
            auto call = tracer.span("alloc.turn_off");
            ++off_calls;
            if (alloc::turn_off_servers(*state, k, opts) > 0.0) ++off_commits;
          }
        }
      }
      if (opts.enable_reassign) {
        auto span = tracer.span("alloc.reassign");
        reassign_gain += alloc::reassign_pass_snapshot(*state, opts, eval);
      }
      if (opts.allow_rejection) {
        auto span = tracer.span("alloc.drop_unprofitable");
        alloc::drop_unprofitable_clients(*state, opts);
      }
      double profit_after = 0.0;
      {
        auto span = tracer.span("model.profit");
        profit_after = state->profit();
      }
      const double significant =
          opts.steady_tolerance * std::max(std::fabs(best_profit), 1.0);
      stalled_rounds =
          profit_after > best_profit + significant ? 0 : stalled_rounds + 1;
      if (profit_after > best_profit) {
        best_profit = profit_after;
        auto span = tracer.span("model.checkpoint");
        best = state->checkpoint(profit_after);
      }
      if (stalled_rounds >= 2) break;
    }
    {
      auto span = tracer.span("model.checkpoint");
      state->adopt(model::AllocState(state->materialize(best)));
    }
    out.profit = best_profit;
    out.state = std::move(state);
  }
  out.wall_s = seconds_since(t0);

  result.set("alloc.initial_s", tracer.total("alloc.initial"), "s");
  result.set("alloc.adjust_shares_s", tracer.total("alloc.adjust_shares"), "s");
  result.set("alloc.adjust_dispersion_s",
             tracer.total("alloc.adjust_dispersion"), "s");
  result.set("alloc.turn_on_s", tracer.total("alloc.turn_on"), "s");
  result.set("alloc.turn_off_s", tracer.total("alloc.turn_off"), "s");
  result.set("alloc.turn_on_call_ms_p50",
             1e3 * median(tracer.durations("alloc.turn_on")), "ms");
  result.set("alloc.turn_off_call_ms_p50",
             1e3 * median(tracer.durations("alloc.turn_off")), "ms");
  result.set("alloc.turn_on_commit_frac", frac(on_commits, on_calls), "frac");
  result.set("alloc.turn_off_commit_frac", frac(off_commits, off_calls),
             "frac");
  result.set("alloc.server_power_frac",
             frac(tracer.total("alloc.server_power"), out.wall_s), "frac");
  result.set("alloc.reassign_s", tracer.total("alloc.reassign"), "s");
  result.set("alloc.reassign_gain", reassign_gain, "money/s");
  result.set("trace.replay_s", out.wall_s, "s");
  return out;
}

void probe_moves(model::AllocState& state, const alloc::AllocatorOptions& opts,
                 Result& result) {
  const std::vector<ClientId> sample = client_sample(state.ledger(), 256);
  std::vector<double> propose_us;
  double sink = 0.0;
  {
    alloc::MoveEngine engine(state, opts);
    for (ClientId i : sample) {
      const auto t0 = Clock::now();
      const alloc::MoveEngine::Proposal p = engine.propose_best(i);
      propose_us.push_back(1e6 * seconds_since(t0));
      sink += p.predicted;
    }
  }

  model::ResidualView scratch(state.view());
  model::ResidualView::Undo undo;
  alloc::InsertionStats stats;
  for (ClientId i : sample) {
    scratch.remove_client(i, state.ledger().placements(i), &undo);
    const auto plan = alloc::best_insertion(scratch, i, opts, {}, &stats);
    if (plan) sink += plan->score;
    scratch.restore(undo);
  }
  const double probes =
      stats.pruned_solves + stats.exact_fallbacks + stats.full_solves;
  result.set("alloc.propose_us_p50", median(propose_us), "us");
  result.set("alloc.probe_pruned_frac", frac(stats.pruned_solves, probes),
             "frac");
  result.set("alloc.probe_fallback_frac", frac(stats.exact_fallbacks, probes),
             "frac");
  result.check(!std::isnan(sink), "move probes returned NaN");
}

void probe_kernels(const model::Cloud& cloud, Result& result) {
  // Lanes hold the workload's own clients and server classes. The kernels
  // are branch-free loops in another translation unit, so neither the values
  // nor dead-code elimination change what is timed.
  constexpr std::size_t kLanes = 4096;
  std::vector<units::ArrivalRate> lambda(kLanes), mu_p(kLanes), mu_n(kLanes),
      rates(kLanes);
  std::vector<units::Share> phi(kLanes);
  std::vector<units::Time> delay(kLanes);
  const auto& clients = cloud.clients();
  const auto& servers = cloud.servers();
  for (std::size_t e = 0; e < kLanes; ++e) {
    const model::Client& c = clients[e % clients.size()];
    const model::ServerClass& sc =
        cloud.server_class_of(servers[e % servers.size()].id);
    lambda[e] = units::ArrivalRate{c.lambda_pred};
    phi[e] = units::Share{std::min(
        1.0, 1.5 * c.lambda_pred * c.alpha_p / sc.cap_p)};
    mu_p[e] = units::ArrivalRate{phi[e].value() * sc.cap_p / c.alpha_p};
    mu_n[e] = units::ArrivalRate{phi[e].value() * sc.cap_n / c.alpha_n};
  }
  const model::ServerClass& sc0 = cloud.server_class_of(servers.front().id);
  const units::WorkRate capacity{sc0.cap_p};
  const units::Work alpha{clients.front().alpha_p};

  // Repeat each kernel until ~40 ms of work, then take the fastest of five
  // such batches (ns per element is a property of the code, not the load).
  const auto time_kernel = [&](auto&& kernel) {
    double best_ns = 0.0;
    for (int batch = 0; batch < 5; ++batch) {
      long iters = 0;
      const auto t0 = Clock::now();
      double elapsed = 0.0;
      do {
        for (int r = 0; r < 64; ++r) kernel();
        iters += 64;
        elapsed = seconds_since(t0);
      } while (elapsed < 0.04);
      const double ns = 1e9 * elapsed / (static_cast<double>(iters) * kLanes);
      if (batch == 0 || ns < best_ns) best_ns = ns;
    }
    return best_ns;
  };
  const double two_stage_ns = time_kernel([&] {
    cloudalloc::queueing::two_stage_delays(lambda.data(), mu_p.data(),
                                           mu_n.data(), delay.data(), kLanes);
  });
  const double gps_ns = time_kernel([&] {
    cloudalloc::queueing::gps_service_rates(phi.data(), capacity, alpha,
                                            rates.data(), kLanes);
  });
  result.set("queueing.two_stage_ns_per_elem", two_stage_ns, "ns");
  // Three rate lanes in, one delay lane out.
  result.set("queueing.two_stage_bytes_per_elem", 4.0 * sizeof(double), "B");
  result.set("queueing.gps_rates_ns_per_elem", gps_ns, "ns");
  // One share lane in, one rate lane out (capacity and work are scalars).
  result.set("queueing.gps_rates_bytes_per_elem", 2.0 * sizeof(double), "B");
  bool nan = false;
  for (std::size_t e = 0; e < kLanes; ++e)
    nan = nan || std::isnan(delay[e].value()) || std::isnan(rates[e].value());
  result.check(!nan, "queueing kernels produced NaN");
}

}  // namespace allocbench
