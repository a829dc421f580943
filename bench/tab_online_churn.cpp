// Online serving under churn: the measurements behind EXPERIMENTS.md's
// "Online serving under churn" section and CI's BENCH_online.json.
//
// Three tables over one seeded churn stream:
//   1. warm-start vs always-full-re-solve: steady-state profit, mean
//      epoch latency, and migrated traffic. The headline claim is the
//      warm path holding the full-re-solve profit at a fraction of its
//      latency; both columns are measured, not assumed.
//   2. admission threshold sweep: how the marginal-profit bar trades
//      admitted clients against realized profit.
//   3. migration-cost sweep: how pricing redirection into the move gates
//      trades migrated traffic against profit.
//
// Flags: --clients=60 --epochs=12 --initial=40 --seed=7
//        --thresholds=0,0.5,1,2  --migration=0,0.5,2,8
//        --out=BENCH_online.json
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "serve/online.h"
#include "workload/churn.h"
#include "workload/scenario.h"

using namespace cloudalloc;

namespace {

std::vector<double> parse_double_list(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) out.push_back(std::stod(tok));
  return out;
}

struct RunSummary {
  double final_profit = 0.0;
  double steady_profit = 0.0;  ///< mean over the last 3 epochs
  double mean_epoch_ms = 0.0;  ///< churn epochs only (epoch 0 excluded)
  double cold_ms = 0.0;        ///< epoch-0 batch solve
  int admitted = 0;
  int rejected = 0;
  int full_resolves = 0;
  double redirected = 0.0;  ///< clients' worth of traffic migrated
};

RunSummary run(const model::Cloud& universe,
               const workload::ChurnStream& stream,
               const serve::OnlineOptions& options) {
  serve::OnlineServer server(universe, stream.initially_present, options);
  RunSummary summary;
  summary.cold_ms = server.start().wall_ms;
  for (const auto& events : stream.epochs) {
    const serve::EpochStats stats = server.step(events);
    summary.mean_epoch_ms += stats.wall_ms;
    summary.admitted += stats.admitted;
    summary.rejected += stats.rejected;
    summary.full_resolves += stats.full_resolve ? 1 : 0;
    summary.redirected += stats.diff.redirected;
  }
  const auto& history = server.history();
  const std::size_t epochs = stream.epochs.size();
  summary.mean_epoch_ms /= static_cast<double>(std::max<std::size_t>(1, epochs));
  const std::size_t tail = std::min<std::size_t>(3, history.size());
  for (std::size_t t = history.size() - tail; t < history.size(); ++t)
    summary.steady_profit += history[t].profit;
  summary.steady_profit /= static_cast<double>(tail);
  summary.final_profit = server.profit();
  return summary;
}

Json to_json(const RunSummary& s) {
  return Json(JsonObject{
      {"final_profit", Json(s.final_profit)},
      {"steady_profit", Json(s.steady_profit)},
      {"mean_epoch_ms", Json(s.mean_epoch_ms)},
      {"cold_ms", Json(s.cold_ms)},
      {"admitted", Json(s.admitted)},
      {"rejected", Json(s.rejected)},
      {"full_resolves", Json(s.full_resolves)},
      {"redirected", Json(s.redirected)},
  });
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (const auto flag = args.unknown_flag(
          {"clients", "epochs", "initial", "seed", "thresholds", "migration",
           "repair", "warm_migration", "out"})) {
    std::cerr << "error: unknown flag --" << *flag << "\n";
    return 1;
  }
  const int clients = static_cast<int>(args.get_int("clients", 60));
  const int epochs = static_cast<int>(args.get_int("epochs", 12));
  const int initial =
      static_cast<int>(args.get_int("initial", clients * 2 / 3));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 7));
  const std::vector<double> thresholds =
      parse_double_list(args.get("thresholds", "0,0.5,1,2"));
  const std::vector<double> migration_costs =
      parse_double_list(args.get("migration", "0,0.5,2,8"));
  const int repair_rounds = static_cast<int>(args.get_int("repair", 2));
  // Recommended operating point for the warm path (see the migration-cost
  // sweep below): a moderate migration cost regularizes the greedy repair
  // against profit-neutral thrash. The library default stays 0 so batch
  // solves keep their historic bits; the serving layer opts in here.
  const double warm_migration = args.get_double("warm_migration", 2.0);
  const std::string out_path = args.get("out", "BENCH_online.json");

  workload::ScenarioParams scenario;
  scenario.num_clients = clients;
  scenario.servers_per_cluster = 8;
  const model::Cloud universe = workload::make_scenario(scenario, seed);

  workload::ChurnParams churn;
  churn.epochs = epochs;
  churn.initial_clients = initial;
  churn.arrival_rate = 3.0;
  churn.departure_probability = 0.10;
  churn.demand_change_probability = 0.2;
  const workload::ChurnStream stream =
      workload::make_churn_stream(universe, churn, seed + 1);

  bench::print_header("Online serving under churn",
                      "warm-start epochs vs full re-solve; admission and "
                      "migration-cost sweeps");

  // --- 1. warm vs always-full --------------------------------------------
  serve::OnlineOptions warm_opts;
  warm_opts.resolve_churn_fraction = 1e9;  // pin each mode to its path
  warm_opts.resolve_profit_gap = 1e9;
  warm_opts.repair_rounds = repair_rounds;
  warm_opts.alloc.migration_cost = warm_migration;
  serve::OnlineOptions full_opts;
  full_opts.resolve_churn_fraction = 1e-9;
  serve::OnlineOptions triggered_opts;  // the defaults: triggers decide
  triggered_opts.repair_rounds = repair_rounds;
  triggered_opts.alloc.migration_cost = warm_migration;

  const RunSummary warm = run(universe, stream, warm_opts);
  const RunSummary full = run(universe, stream, full_opts);
  const RunSummary triggered = run(universe, stream, triggered_opts);

  Table modes({"mode", "steady_profit", "mean_epoch_ms", "speedup_vs_full",
               "admitted", "rejected", "full_resolves", "redirected"});
  const auto mode_row = [&](const char* name, const RunSummary& s) {
    modes.add_row({name, Table::num(s.steady_profit, 2),
                   Table::num(s.mean_epoch_ms, 2),
                   Table::num(full.mean_epoch_ms / s.mean_epoch_ms, 2),
                   std::to_string(s.admitted), std::to_string(s.rejected),
                   std::to_string(s.full_resolves),
                   Table::num(s.redirected, 2)});
  };
  mode_row("warm", warm);
  mode_row("full", full);
  mode_row("triggered", triggered);
  modes.print(std::cout);

  // --- 2. admission threshold sweep --------------------------------------
  Table admission({"threshold", "admitted", "rejected", "steady_profit",
                   "redirected"});
  JsonArray admission_rows;
  for (double threshold : thresholds) {
    serve::OnlineOptions opts;
    opts.admission.threshold = threshold;
    const RunSummary s = run(universe, stream, opts);
    admission.add_row({Table::num(threshold, 2), std::to_string(s.admitted),
                       std::to_string(s.rejected),
                       Table::num(s.steady_profit, 2),
                       Table::num(s.redirected, 2)});
    JsonObject row{{"threshold", Json(threshold)}};
    row.emplace("run", to_json(s));
    admission_rows.emplace_back(std::move(row));
  }
  std::cout << "\n";
  admission.print(std::cout);

  // --- 3. migration-cost sweep -------------------------------------------
  Table migration({"migration_cost", "redirected", "steady_profit",
                   "mean_epoch_ms"});
  JsonArray migration_rows;
  for (double cost : migration_costs) {
    serve::OnlineOptions opts;
    opts.alloc.migration_cost = cost;
    opts.resolve_churn_fraction = 1e9;  // warm path, where the knob bites
    opts.resolve_profit_gap = 1e9;
    const RunSummary s = run(universe, stream, opts);
    migration.add_row({Table::num(cost, 2), Table::num(s.redirected, 2),
                       Table::num(s.steady_profit, 2),
                       Table::num(s.mean_epoch_ms, 2)});
    JsonObject row{{"migration_cost", Json(cost)}};
    row.emplace("run", to_json(s));
    migration_rows.emplace_back(std::move(row));
  }
  std::cout << "\n";
  migration.print(std::cout);

  const Json report(JsonObject{
      {"bench", Json("tab_online_churn")},
      {"clients", Json(clients)},
      {"epochs", Json(epochs)},
      {"initial_clients", Json(initial)},
      {"warm_migration_cost", Json(warm_migration)},
      {"repair_rounds", Json(repair_rounds)},
      {"hardware_threads",
       Json(static_cast<int>(std::thread::hardware_concurrency()))},
      {"warm", to_json(warm)},
      {"full", to_json(full)},
      {"triggered", to_json(triggered)},
      {"admission_sweep", Json(std::move(admission_rows))},
      {"migration_sweep", Json(std::move(migration_rows))},
  });
  std::ofstream out(out_path);
  out << report.dump(1) << "\n";
  std::cout << "\nwrote " << out_path
            << "\nnote: 'warm' repairs in place every epoch; 'full' "
               "re-solves from scratch\nevery churn epoch; 'triggered' is "
               "the default policy (churn-fraction and\nprofit-gap "
               "triggers pick per epoch). The warm path should hold the "
               "full\npath's steady profit at a fraction of its "
               "mean_epoch_ms.\n";
  return 0;
}
