// Added table E7 (google-benchmark): throughput of the numerical kernels
// the heuristic leans on — the KKT share water-filling (eq. 18), the
// convex dispersion solver, the quantized-split DP, one full
// Assign_Distribute evaluation, and one client's best insertion over a
// cluster window.
#include <benchmark/benchmark.h>

#include "alloc/allocator.h"
#include "alloc/assign_distribute.h"
#include "alloc/delta_price.h"
#include "alloc/initial.h"
#include "alloc/move_engine.h"
#include "common/rng.h"
#include "model/alloc_state.h"
#include "model/evaluator.h"
#include "model/residual.h"
#include "opt/dispersion.h"
#include "opt/dp.h"
#include "opt/kkt_shares.h"
#include "queueing/batch.h"
#include "queueing/gps.h"
#include "queueing/mm1.h"
#include "sim/event_queue.h"
#include "sim/replication.h"
#include "workload/scenario.h"

using namespace cloudalloc;

namespace {

std::vector<opt::ShareItem> make_share_items(int n, Rng& rng) {
  std::vector<opt::ShareItem> items;
  for (int i = 0; i < n; ++i) {
    opt::ShareItem it;
    it.weight = rng.uniform(0.1, 3.0);
    it.rate_factor = rng.uniform(2.0, 8.0);
    // Scale loads with n so the floors stay jointly feasible and the
    // bench measures the water-filling, not the infeasibility early-out.
    it.load = rng.uniform(0.05, 0.5) * 4.0 / n;
    it.lo = (it.load + 0.02) / it.rate_factor;
    it.hi = 1.0;
    items.push_back(it);
  }
  return items;
}

void BM_KktShares(benchmark::State& state) {
  Rng rng(1);
  const auto items = make_share_items(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    auto sol = opt::solve_shares(items, 1.0);
    benchmark::DoNotOptimize(sol);
  }
  state.counters["items"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_KktShares)->Arg(2)->Arg(8)->Arg(32);

void BM_Dispersion(benchmark::State& state) {
  Rng rng(2);
  const double lambda = 2.0;
  std::vector<opt::DispersionItem> items;
  for (int j = 0; j < state.range(0); ++j) {
    opt::DispersionItem it;
    it.mu_p = rng.uniform(1.5, 4.0) * lambda;
    it.mu_n = rng.uniform(1.5, 4.0) * lambda;
    it.lin_cost = rng.uniform(0.0, 1.0);
    it.cap = std::min(1.0, 0.9 * std::min(it.mu_p, it.mu_n) / lambda);
    items.push_back(it);
  }
  for (auto _ : state) {
    auto sol = opt::solve_dispersion(items, lambda, 1.0);
    benchmark::DoNotOptimize(sol);
  }
  state.counters["servers"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Dispersion)->Arg(2)->Arg(4)->Arg(8);

void BM_DpDistribute(benchmark::State& state) {
  Rng rng(3);
  const int J = static_cast<int>(state.range(0));
  const int G = static_cast<int>(state.range(1));
  opt::DpTable table;
  table.reset(G);
  std::vector<int> rows;
  for (int j = 0; j < J; ++j) {
    const int r = table.add_row();
    for (int g = 1; g <= G; ++g) table.set(r, g, rng.uniform(-2.0, 2.0));
    rows.push_back(r);
  }
  for (auto _ : state) {
    auto result = opt::dp_distribute(table, rows);
    benchmark::DoNotOptimize(result);
  }
  state.counters["J"] = static_cast<double>(J);
  state.counters["G"] = static_cast<double>(G);
}
BENCHMARK(BM_DpDistribute)->Args({10, 10})->Args({35, 10})->Args({35, 40});

void BM_AssignDistribute(benchmark::State& state) {
  workload::ScenarioParams params;
  params.num_clients = 50;
  const auto cloud = workload::make_scenario(params, 4);
  alloc::AllocatorOptions opts;
  model::Allocation alloc_state(cloud);
  // Half-fill the first cluster so the evaluation sees realistic state.
  for (int ci = 0; ci < 25; ++ci) {
    const model::ClientId i{ci};
    auto plan =
        alloc::assign_distribute(alloc_state.residual(), i,
                                 model::ClusterId{0}, opts);
    if (plan)
      alloc_state.assign(i, model::ClusterId{0}, std::move(plan->placements));
  }
  for (auto _ : state) {
    auto plan = alloc::assign_distribute(alloc_state.residual(),
                                         model::ClientId{30},
                                         model::ClusterId{0}, opts);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_AssignDistribute);

/// One client's 4-cluster window (AllocatorOptions::cluster_fanout, as the
/// scale benchmarks set it) on a half-loaded cloud of 100-server clusters
/// shaped like the large-population solves' (workload::scaled_params).
void BM_BestInsertion(benchmark::State& state) {
  const auto cloud = workload::make_scenario(workload::scaled_params(2000), 8);
  alloc::AllocatorOptions opts;
  opts.cluster_fanout = 4;
  model::Allocation alloc_state(cloud);
  for (int ci = 0; ci < cloud.num_clients() / 2; ++ci) {
    const model::ClientId i{ci};
    auto plan = alloc::best_insertion(alloc_state.residual(), i, opts);
    if (plan) alloc_state.assign(i, plan->cluster, std::move(plan->placements));
  }
  const model::ClientId probe{cloud.num_clients() / 2 + 1};
  for (auto _ : state) {
    auto plan = alloc::best_insertion(alloc_state.residual(), probe, opts);
    benchmark::DoNotOptimize(plan);
  }
  state.counters["clusters"] = static_cast<double>(cloud.num_clusters());
}
BENCHMARK(BM_BestInsertion);

/// Shared fixture for the move-pricing pair: a half-loaded cloud, one
/// placed client, and a re-placement plan for it in another cluster. Both
/// benchmarks price exactly this move, so the ratio is the cost of
/// clone-and-evaluate versus the delta pricer for identical work.
struct MovePricingFixture {
  MovePricingFixture()
      : cloud(workload::make_scenario(
            [] {
              workload::ScenarioParams p;
              p.num_clients = 100;
              return p;
            }(),
            6)),
        alloc_state(cloud) {
    for (int ci = 0; ci < 60; ++ci) {
      const model::ClientId i{ci};
      auto plan = alloc::best_insertion(alloc_state.residual(), i, opts);
      if (plan) alloc_state.assign(i, plan->cluster, plan->placements);
    }
    model::profit(alloc_state);  // settle caches before snapshotting
    mover = model::ClientId{0};
    old_ps = alloc_state.placements(mover);
    const model::ClusterId other{(alloc_state.cluster_of(mover).value() + 1) %
                                 cloud.num_clusters()};
    model::ResidualView probe = alloc_state.residual();
    probe.remove_client(mover, old_ps);
    auto plan = alloc::assign_distribute(probe, mover, other, opts);
    new_cluster = other;
    new_ps = plan ? plan->placements : old_ps;
  }
  alloc::AllocatorOptions opts;
  model::Cloud cloud;
  model::Allocation alloc_state;
  model::ClientId mover{0};
  model::ClusterId new_cluster{0};
  std::vector<model::Placement> old_ps, new_ps;
};

void BM_MovePricing_CloneEvaluate(benchmark::State& state) {
  // The pre-PR protocol: clone the allocation, apply the move, evaluate
  // full profit on both sides.
  MovePricingFixture fx;
  const double before = model::profit(fx.alloc_state);
  for (auto _ : state) {
    model::Allocation trial = fx.alloc_state.clone();
    trial.clear(fx.mover);
    trial.assign(fx.mover, fx.new_cluster, fx.new_ps);
    const double delta = model::profit(trial) - before;
    benchmark::DoNotOptimize(delta);
  }
}
BENCHMARK(BM_MovePricing_CloneEvaluate);

void BM_MovePricing_DeltaPrice(benchmark::State& state) {
  // The same move priced on a ResidualView via the delta pricer.
  MovePricingFixture fx;
  model::ResidualView view = fx.alloc_state.residual();
  for (auto _ : state) {
    const double delta =
        alloc::replace_delta(view, fx.mover, fx.old_ps, fx.new_ps);
    benchmark::DoNotOptimize(delta);
  }
}
BENCHMARK(BM_MovePricing_DeltaPrice);

/// Shared fixture for the baseline-pricing pairs: what SA and Monte
/// Carlo pay PER CANDIDATE MOVE before and after the allocation-state
/// engine. The "before" shapes are the historical ones — SA re-decoded
/// the whole gene vector and re-ran the full evaluator per neighbor; MC's
/// polish cloned the sample to price one reassignment — and the "after"
/// shapes are the engine paths the baselines run now.
struct BaselinePricingFixture {
  BaselinePricingFixture()
      : cloud(workload::make_scenario(
            [] {
              workload::ScenarioParams p;
              p.num_clients = 100;
              return p;
            }(),
            8)),
        genes(static_cast<std::size_t>(cloud.num_clients())) {
    Rng rng(9);
    for (auto& k : genes)
      k = model::ClusterId{static_cast<int>(rng.uniform_int(0, cloud.num_clusters() - 1))};
  }
  alloc::AllocatorOptions opts;
  model::Cloud cloud;
  std::vector<model::ClusterId> genes;
};

void BM_Baselines_SA_RebuildScore(benchmark::State& state) {
  // Historical SA neighbor cost: flip one gene, decode the whole
  // assignment from scratch, evaluate full profit.
  BaselinePricingFixture fx;
  model::ClientId i{0};
  for (auto _ : state) {
    const auto saved = fx.genes[i.index()];
    fx.genes[i.index()] =
        model::ClusterId{(saved.value() + 1) % fx.cloud.num_clusters()};
    const auto trial =
        alloc::build_from_assignment(fx.cloud, fx.genes, fx.opts);
    benchmark::DoNotOptimize(model::profit(trial));
    fx.genes[i.index()] = saved;
    i = model::ClientId{(i.value() + 1) % fx.cloud.num_clients()};
  }
}
BENCHMARK(BM_Baselines_SA_RebuildScore);

void BM_Baselines_SA_DeltaScore(benchmark::State& state) {
  // The same neighbor priced through the move engine: vacate + probe +
  // telescoped delta on the residual view, bitwise-restored after.
  BaselinePricingFixture fx;
  model::AllocState st(
      alloc::build_from_assignment(fx.cloud, fx.genes, fx.opts));
  (void)st.profit();  // settle caches, as the SA walk does once up front
  alloc::MoveEngine mover(st, fx.opts);
  model::ClientId i{0};
  for (auto _ : state) {
    const model::ClusterId k{(st.ledger().cluster_of(i).value() + 1) %
                             fx.cloud.num_clusters()};
    auto prop = mover.propose_into(i, k);
    benchmark::DoNotOptimize(prop.predicted);
    i = model::ClientId{(i.value() + 1) % fx.cloud.num_clients()};
  }
}
BENCHMARK(BM_Baselines_SA_DeltaScore);

void BM_Baselines_MC_CloneEvaluate(benchmark::State& state) {
  // Historical Monte Carlo polish cost per candidate reassignment: clone
  // the sample, apply the move, evaluate full profit on the clone.
  BaselinePricingFixture fx;
  const auto base = alloc::build_from_assignment(fx.cloud, fx.genes, fx.opts);
  const double before = model::profit(base);
  model::ClientId mover{0};
  while (!base.is_assigned(mover)) mover = model::ClientId{mover.value() + 1};
  const auto old_ps = base.placements(mover);
  const model::ClusterId other{(base.cluster_of(mover).value() + 1) %
                               fx.cloud.num_clusters()};
  model::ResidualView probe = base.residual();
  probe.remove_client(mover, old_ps);
  const auto plan = alloc::assign_distribute(probe, mover, other, fx.opts);
  const auto new_ps = plan ? plan->placements : old_ps;
  for (auto _ : state) {
    model::Allocation trial = base.clone();
    trial.clear(mover);
    trial.assign(mover, other, new_ps);
    benchmark::DoNotOptimize(model::profit(trial) - before);
  }
}
BENCHMARK(BM_Baselines_MC_CloneEvaluate);

void BM_Baselines_MC_DeltaPrice(benchmark::State& state) {
  // The same candidate priced clone-free against the engine's view.
  BaselinePricingFixture fx;
  model::AllocState st(
      alloc::build_from_assignment(fx.cloud, fx.genes, fx.opts));
  (void)st.profit();
  model::ClientId mover{0};
  while (!st.ledger().is_assigned(mover))
    mover = model::ClientId{mover.value() + 1};
  const auto old_ps = st.ledger().placements(mover);
  const model::ClusterId other{(st.ledger().cluster_of(mover).value() + 1) %
                               fx.cloud.num_clusters()};
  model::ResidualView probe = st.view();
  probe.remove_client(mover, old_ps);
  const auto plan = alloc::assign_distribute(probe, mover, other, fx.opts);
  const auto new_ps = plan ? plan->placements : old_ps;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        alloc::replace_delta(st.view(), mover, old_ps, new_ps));
  }
}
BENCHMARK(BM_Baselines_MC_DeltaPrice);

void BM_QueueingKernels_Scalar(benchmark::State& state) {
  // One scalar gps/mm1 call per quantum count — the shape score_rows had
  // before the batched kernels.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<double> arr(n), phi_p(n), phi_n(n), delay(n);
  for (std::size_t g = 0; g < n; ++g) {
    arr[g] = rng.uniform(0.2, 1.5);
    phi_p[g] = rng.uniform(0.3, 0.9);
    phi_n[g] = rng.uniform(0.3, 0.9);
  }
  for (auto _ : state) {
    for (std::size_t g = 0; g < n; ++g) {
      const units::ArrivalRate mu_p = queueing::gps_service_rate(
          units::Share{phi_p[g]}, units::WorkRate{4.0}, units::Work{0.7});
      const units::ArrivalRate mu_n = queueing::gps_service_rate(
          units::Share{phi_n[g]}, units::WorkRate{4.0}, units::Work{0.7});
      delay[g] =
          (queueing::mm1_response_time_or_inf(units::ArrivalRate{arr[g]}, mu_p) +
           queueing::mm1_response_time_or_inf(units::ArrivalRate{arr[g]}, mu_n))
              .value();
    }
    benchmark::DoNotOptimize(delay.data());
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_QueueingKernels_Scalar)->Arg(10)->Arg(40);

void BM_QueueingKernels_Batched(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<units::ArrivalRate> arr(n), mu_p(n), mu_n(n);
  std::vector<units::Share> phi_p(n), phi_n(n);
  std::vector<units::Time> delay(n);
  for (std::size_t g = 0; g < n; ++g) {
    arr[g] = units::ArrivalRate{rng.uniform(0.2, 1.5)};
    phi_p[g] = units::Share{rng.uniform(0.3, 0.9)};
    phi_n[g] = units::Share{rng.uniform(0.3, 0.9)};
  }
  for (auto _ : state) {
    queueing::gps_service_rates(phi_p.data(), units::WorkRate{4.0},
                                units::Work{0.7}, mu_p.data(), n);
    queueing::gps_service_rates(phi_n.data(), units::WorkRate{4.0},
                                units::Work{0.7}, mu_n.data(), n);
    queueing::two_stage_delays(arr.data(), mu_p.data(), mu_n.data(),
                               delay.data(), n);
    benchmark::DoNotOptimize(delay.data());
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_QueueingKernels_Batched)->Arg(10)->Arg(40);

// --- Simulator benchmarks (the typed-event core; DESIGN.md section 10).

void BM_Sim_EventQueue(benchmark::State& state) {
  // Classic hold model at a resident population of `n` events: pop the
  // earliest, schedule a replacement an exponential gap ahead. Exercises
  // the calendar queue's schedule/pop cycle in isolation.
  const int n = static_cast<int>(state.range(0));
  sim::EventQueue q;
  Rng rng(12);
  for (int i = 0; i < n; ++i)
    q.schedule(rng.uniform(0.0, static_cast<double>(n)), sim::Event{});
  double time = 0.0;
  sim::Event ev;
  for (auto _ : state) {
    q.pop_into(time, ev);
    q.schedule(time + rng.exponential(1.0 / static_cast<double>(n)), ev);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["resident"] = static_cast<double>(n);
}
BENCHMARK(BM_Sim_EventQueue)->Arg(64)->Arg(1024)->Arg(16384);

/// The 200-client model-validation workload (E4) the acceptance numbers
/// are quoted on: scenario seed 3, default allocator.
struct SimWorkloadFixture {
  explicit SimWorkloadFixture(int clients)
      : cloud(workload::make_scenario(
            [clients] {
              workload::ScenarioParams p;
              p.num_clients = clients;
              return p;
            }(),
            3)),
        allocation(alloc::ResourceAllocator().run(cloud).allocation) {}
  model::Cloud cloud;
  model::Allocation allocation;
};

void BM_Sim_EventLoop(benchmark::State& state) {
  // End-to-end single-thread event loop — the PR's acceptance benchmark:
  // items/sec here is simulated events/sec, compared against the pre-PR
  // std::function simulator on the same workload and options.
  SimWorkloadFixture fx(200);
  sim::SimOptions opts;
  opts.horizon = 2000.0;
  opts.seed = 3;
  opts.mode = state.range(0) == 0 ? sim::GpsMode::kIsolated
                                  : sim::GpsMode::kWorkConserving;
  opts.collect_percentiles = false;
  std::size_t events = 0;
  for (auto _ : state) {
    const auto report = sim::simulate_allocation(fx.allocation, opts);
    events += report.events_executed;
    benchmark::DoNotOptimize(report.total_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["mode"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Sim_EventLoop)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Sim_Replications(benchmark::State& state) {
  // 8 independent replications fanned over the thread pool; results are
  // bit-identical at every thread count, so the arg sweep measures pure
  // scaling. Real time, since the work happens on pool workers.
  SimWorkloadFixture fx(50);
  sim::ReplicationOptions opts;
  opts.sim.horizon = 500.0;
  opts.sim.seed = 3;
  opts.sim.collect_percentiles = false;
  opts.replications = 8;
  opts.num_threads = static_cast<int>(state.range(0));
  std::size_t events = 0;
  for (auto _ : state) {
    const auto report = sim::run_replications(fx.allocation, opts);
    events += report.events_executed;
    benchmark::DoNotOptimize(report.total_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Sim_Replications)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ProfitEvaluation(benchmark::State& state) {
  workload::ScenarioParams params;
  params.num_clients = 100;
  const auto cloud = workload::make_scenario(params, 5);
  const auto result = alloc::ResourceAllocator().run(cloud);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::profit(result.allocation));
  }
}
BENCHMARK(BM_ProfitEvaluation);

}  // namespace

BENCHMARK_MAIN();
