// Added table E8: multi-epoch adaptation strategies under a diurnal
// demand trace (the "decision epoch" discussion of Section III, which the
// paper leaves qualitative). Strategies:
//   * adaptive   — serve::OnlineDriver with default options (predict,
//                  warm-repair, full re-solve on churn or a profit gap),
//   * cold-every — full re-optimization every epoch (upper bound, slow),
//   * static     — epoch-0 allocation never changes (what you lose by not
//                  reacting: clients whose queues destabilize earn nothing).
// Profit each epoch is evaluated against the *observed* rates.
//
// Flags: --clients, --epochs, --amplitude, --spikes.
#include <iostream>

#include "alloc/allocator.h"
#include "bench_common.h"
#include "common/stats.h"
#include "epoch/predictor.h"
#include "model/evaluator.h"
#include "serve/driver.h"
#include "workload/trace.h"

using namespace cloudalloc;

namespace {

/// Rebuilds `base` with the given true rates (both predicted and agreed
/// stay contractual; only lambda_pred changes — the evaluation cloud uses
/// observed rates as the true load the queues see).
model::Cloud with_rates(const model::Cloud& base,
                        const std::vector<double>& rates) {
  std::vector<model::Client> clients = base.clients();
  for (auto& c : clients)
    c.lambda_pred = rates[c.id.index()];
  return model::Cloud(base.server_classes(), base.servers(), base.clusters(),
                      base.utility_classes(), std::move(clients));
}

/// Evaluates an allocation's structure against the true-rate cloud:
/// placements are transplanted verbatim; unstable clients earn nothing.
double realized_profit(const model::Allocation& alloc,
                       const model::Cloud& truth) {
  model::Allocation real(truth);
  for (model::ClientId i : truth.client_ids())
    if (alloc.is_assigned(i))
      real.assign(i, alloc.cluster_of(i), alloc.placements(i));
  return model::profit(real);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const int clients = static_cast<int>(args.get_int("clients", 60));
  workload::TraceParams trace_params;
  trace_params.epochs = static_cast<int>(args.get_int("epochs", 8));
  trace_params.amplitude = args.get_double("amplitude", 0.4);
  trace_params.spike_probability = args.get_double("spikes", 0.02);

  bench::print_header("Adaptation strategies across decision epochs",
                      "added analysis (E8), Section III epoch discussion");

  const auto base =
      workload::make_scenario(bench::scenario_params(clients), 6000);
  const auto trace = workload::make_rate_trace(base, trace_params, 6000);

  // --- adaptive: the serving driver over a fixed population.
  Summary adaptive_profit;
  double adaptive_seconds = 0.0;
  int full_resolves = 0;
  {
    std::vector<model::ClientId> everyone;
    for (model::ClientId i : base.client_ids()) everyone.push_back(i);
    serve::OnlineDriver driver(base, everyone,
                               epoch::HoltPredictor(0.6, 0.3, 1.0));
    driver.start();
    for (int t = 0; t < trace_params.epochs; ++t) {
      const auto& observed = trace[static_cast<std::size_t>(t)];
      const serve::EpochStats stats = driver.step({}, observed);
      adaptive_seconds += stats.wall_ms / 1000.0;
      if (stats.full_resolve) ++full_resolves;
      adaptive_profit.add(realized_profit(driver.server().allocation(),
                                          with_rates(base, observed)));
    }
  }

  // --- cold re-optimization every epoch (sees the observed rates as its
  // predictions — an oracle predictor).
  Summary cold_profit;
  double cold_seconds = 0.0;
  {
    for (int t = 0; t < trace_params.epochs; ++t) {
      const auto& observed = trace[static_cast<std::size_t>(t)];
      const auto truth = with_rates(base, observed);
      const auto run = alloc::ResourceAllocator().run(truth);
      cold_seconds += run.report.wall_seconds;
      cold_profit.add(realized_profit(run.allocation, truth));
    }
  }

  // --- static epoch-0 allocation.
  Summary static_profit;
  {
    const auto initial = alloc::ResourceAllocator().run(base);
    for (int t = 0; t < trace_params.epochs; ++t) {
      const auto& observed = trace[static_cast<std::size_t>(t)];
      static_profit.add(
          realized_profit(initial.allocation, with_rates(base, observed)));
    }
  }

  Table table({"strategy", "mean_profit", "min_profit", "total_seconds",
               "notes"});
  table.add_row({"adaptive (online driver)",
                 Table::num(adaptive_profit.mean(), 1),
                 Table::num(adaptive_profit.min(), 1),
                 Table::num(adaptive_seconds, 2),
                 std::to_string(full_resolves) + " full re-solves"});
  table.add_row({"cold every epoch (oracle)", Table::num(cold_profit.mean(), 1),
                 Table::num(cold_profit.min(), 1),
                 Table::num(cold_seconds, 2), "full rerun each epoch"});
  table.add_row({"static epoch-0", Table::num(static_profit.mean(), 1),
                 Table::num(static_profit.min(), 1), "0.00",
                 "never reallocates"});
  table.print(std::cout);
  std::cout << "\nshape check: adaptive ~= cold-every-epoch profit; static "
               "decays\nas drift destabilizes its queues.\n";
  return 0;
}
