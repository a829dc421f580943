// cloudalloc_tool — file-based workflow around the library, using the JSON
// serialization in model/serialize.h. Subcommands:
//
//   generate  --out=cloud.json [--clients=100] [--seed=1]
//       Write a Section-VI scenario to disk.
//   allocate  --cloud=cloud.json --out=alloc.json
//             [--method=heuristic|dist|ps|monte-carlo] [--mc-samples=100]
//             [--threads=N]
//       Solve and save the allocation. --threads sets the parallel
//       evaluation engine's worker count for heuristic/dist (1 =
//       sequential, 0 = hardware concurrency, at most 256; the result is
//       identical either way, only faster).
//   audit     --cloud=cloud.json --alloc=alloc.json
//       Re-load both, audit feasibility, print the profit breakdown.
//   simulate  --cloud=cloud.json --alloc=alloc.json [--horizon=1000]
//             [--work-conserving]
//       Replay the allocation in the discrete-event simulator.
//   compare   --cloud=cloud.json [--mc-samples=50] [--sa-steps=200]
//       Run every solver on the cloud and print a profit/time table.
//   epochs    --cloud=cloud.json [--epochs=8] [--amplitude=0.4]
//             [--spikes=0.02] [--seed=1]
//       Drive the online serving driver (serve::OnlineDriver) over a
//       synthetic diurnal trace and print the per-epoch report; exits 1
//       if an epoch leaves an infeasible allocation.
//
// Numeric flags are range-checked before anything runs: a malformed or
// out-of-range value prints "error: --<flag> ..." and exits 1.
//
// Document schemas: docs/FORMAT.md.
//
// Everything round-trips: `generate | allocate | audit | simulate` uses
// only the files, so results are portable and replayable.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "alloc/allocator.h"
#include "baselines/monte_carlo.h"
#include "dist/manager.h"
#include "baselines/proportional_share.h"
#include "baselines/sa_alloc.h"
#include "common/args.h"
#include "common/table.h"
#include "epoch/predictor.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "model/report.h"
#include "model/serialize.h"
#include "serve/driver.h"
#include "sim/runner.h"
#include "workload/scenario.h"
#include "workload/trace.h"

using namespace cloudalloc;

namespace {

int fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

constexpr std::int64_t kMaxSeed = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMaxCount = std::numeric_limits<int>::max();
/// --threads sizes a process-wide ThreadPool::shared, so it is capped.
constexpr std::int64_t kMaxThreads = 256;

/// Strict flag reads: report "error: --<flag> ..." and yield nullopt when
/// the value is malformed or outside [lo, hi].
std::optional<std::int64_t> int_flag(const Args& args, const std::string& name,
                                     std::int64_t fallback, std::int64_t lo,
                                     std::int64_t hi) {
  std::string error;
  const auto value = args.get_int_in(name, fallback, lo, hi, &error);
  if (!value) fail(error);
  return value;
}

std::optional<double> double_flag(const Args& args, const std::string& name,
                                  double fallback, double lo, double hi) {
  std::string error;
  const auto value = args.get_double_in(name, fallback, lo, hi, &error);
  if (!value) fail(error);
  return value;
}

std::optional<std::int64_t> seed_flag(const Args& args) {
  return int_flag(args, "seed", 1, 0, kMaxSeed);
}

std::optional<model::Cloud> load_cloud(const Args& args) {
  const std::string path = args.get("cloud", "");
  if (path.empty()) {
    std::cerr << "error: --cloud=<file> is required\n";
    return std::nullopt;
  }
  const auto text = model::load_text_file(path);
  if (!text) {
    std::cerr << "error: cannot read " << path << "\n";
    return std::nullopt;
  }
  std::string parse_error;
  const auto doc = Json::parse(*text, &parse_error);
  if (!doc) {
    std::cerr << "error: " << path << ": " << parse_error << "\n";
    return std::nullopt;
  }
  std::string schema_error;
  auto cloud = model::cloud_from_json(*doc, &schema_error);
  if (!cloud) std::cerr << "error: " << path << ": " << schema_error << "\n";
  return cloud;
}

std::optional<model::Allocation> load_allocation(const Args& args,
                                                 const model::Cloud& cloud) {
  const std::string path = args.get("alloc", "");
  if (path.empty()) {
    std::cerr << "error: --alloc=<file> is required\n";
    return std::nullopt;
  }
  const auto text = model::load_text_file(path);
  if (!text) {
    std::cerr << "error: cannot read " << path << "\n";
    return std::nullopt;
  }
  std::string parse_error;
  const auto doc = Json::parse(*text, &parse_error);
  if (!doc) {
    std::cerr << "error: " << path << ": " << parse_error << "\n";
    return std::nullopt;
  }
  std::string schema_error;
  auto alloc = model::allocation_from_json(cloud, *doc, &schema_error);
  if (!alloc) std::cerr << "error: " << path << ": " << schema_error << "\n";
  return alloc;
}

int cmd_generate(const Args& args) {
  const auto clients = int_flag(args, "clients", 100, 1, 1'000'000);
  const auto seed = seed_flag(args);
  if (!clients || !seed) return 1;
  workload::ScenarioParams params;
  params.num_clients = static_cast<int>(*clients);
  const auto cloud =
      workload::make_scenario(params, static_cast<std::uint64_t>(*seed));
  const std::string out = args.get("out", "cloud.json");
  if (!model::save_text_file(out, model::cloud_to_json(cloud).dump(2)))
    return fail("cannot write " + out);
  std::cout << "wrote " << out << " (" << cloud.num_clients() << " clients, "
            << cloud.num_servers() << " servers)\n";
  return 0;
}

int cmd_allocate(const Args& args) {
  const std::string method = args.get("method", "heuristic");
  const auto seed = seed_flag(args);
  const auto threads =
      int_flag(args, "threads", method == "dist" ? 0 : 1, 0, kMaxThreads);
  const auto samples = int_flag(args, "mc-samples", 100, 1, kMaxCount);
  if (!seed || !threads || !samples) return 1;
  auto cloud = load_cloud(args);
  if (!cloud) return 1;

  model::Allocation allocation(*cloud);
  if (method == "heuristic") {
    alloc::AllocatorOptions opts;
    opts.seed = static_cast<std::uint64_t>(*seed);
    opts.num_threads = static_cast<int>(*threads);
    allocation = alloc::ResourceAllocator(opts).run(*cloud).allocation;
  } else if (method == "dist") {
    alloc::AllocatorOptions opts;
    opts.seed = static_cast<std::uint64_t>(*seed);
    opts.num_threads = static_cast<int>(*threads);
    allocation =
        dist::DistributedAllocator(dist::DistributedOptions{opts})
            .run(*cloud)
            .allocation;
  } else if (method == "ps") {
    allocation = baselines::proportional_share_allocate(
                     *cloud, baselines::PsOptions{})
                     .allocation;
  } else if (method == "monte-carlo") {
    baselines::MonteCarloOptions opts;
    opts.samples = static_cast<int>(*samples);
    allocation = baselines::monte_carlo_search(
                     *cloud, opts, static_cast<std::uint64_t>(*seed))
                     .best;
  } else {
    return fail("unknown --method (heuristic|dist|ps|monte-carlo)");
  }

  const std::string out = args.get("out", "alloc.json");
  if (!model::save_text_file(out,
                             model::allocation_to_json(allocation).dump(2)))
    return fail("cannot write " + out);
  std::cout << "method=" << method
            << " profit=" << Table::num(model::profit(allocation), 2)
            << " active_servers=" << allocation.num_active_servers()
            << " -> " << out << "\n";
  return 0;
}

int cmd_audit(const Args& args) {
  // 0 prints every client row.
  const auto max_clients = int_flag(args, "max-clients", 20, 0, kMaxCount);
  if (!max_clients) return 1;
  auto cloud = load_cloud(args);
  if (!cloud) return 1;
  auto allocation = load_allocation(args, *cloud);
  if (!allocation) return 1;

  const auto violations = model::check_feasibility(*allocation);
  std::cout << "feasibility: "
            << (violations.empty() ? "OK" : "VIOLATIONS") << "\n";
  for (const auto& v : violations) std::cout << "  " << v.describe() << "\n";

  model::ReportOptions options;
  options.max_clients = static_cast<int>(*max_clients);
  options.include_servers = args.get_bool("servers", false);
  model::print_report(std::cout, model::evaluate(*allocation),
                      cloud->num_servers(), options);
  return violations.empty() ? 0 : 2;
}

int cmd_simulate(const Args& args) {
  const auto horizon = double_flag(args, "horizon", 1000.0, 1.0, 1e9);
  const auto seed = seed_flag(args);
  if (!horizon || !seed) return 1;
  auto cloud = load_cloud(args);
  if (!cloud) return 1;
  auto allocation = load_allocation(args, *cloud);
  if (!allocation) return 1;

  sim::SimOptions opts;
  opts.horizon = *horizon;
  opts.seed = static_cast<std::uint64_t>(*seed);
  if (args.get_bool("work-conserving", false))
    opts.mode = sim::GpsMode::kWorkConserving;
  const auto report = sim::simulate_allocation(*allocation, opts);

  Table table({"client", "analytic_R", "sim_mean", "p95", "p99", "completed"});
  for (const auto& c : report.clients)
    table.add_row({std::to_string(c.id.value()),
                   Table::num(c.analytic_response, 3),
                   Table::num(c.mean_response, 3), Table::num(c.p95, 3),
                   Table::num(c.p99, 3), std::to_string(c.completed)});
  table.print(std::cout);
  std::cout << "mean |rel error| vs analytic model: "
            << Table::num(report.mean_abs_rel_error, 4) << "\n";
  return 0;
}

int cmd_compare(const Args& args) {
  const auto samples = int_flag(args, "mc-samples", 50, 1, kMaxCount);
  const auto sa_steps = int_flag(args, "sa-steps", 200, 0, kMaxCount);
  if (!samples || !sa_steps) return 1;
  auto cloud = load_cloud(args);
  if (!cloud) return 1;

  Table table({"method", "profit", "seconds", "active_servers"});
  auto add = [&](const char* name, double profit_value, double seconds,
                 int active) {
    table.add_row({name, Table::num(profit_value, 2), Table::num(seconds, 2),
                   std::to_string(active)});
  };

  {
    const auto t0 = std::chrono::steady_clock::now();
    const auto run = alloc::ResourceAllocator().run(*cloud);
    add("Resource_Alloc (proposed)", run.report.final_profit,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count(),
        run.report.active_servers);
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    const auto run = baselines::proportional_share_allocate(
        *cloud, baselines::PsOptions{});
    add("modified Proportional Share", run.profit,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count(),
        run.allocation.num_active_servers());
  }
  {
    baselines::MonteCarloOptions opts;
    opts.samples = static_cast<int>(*samples);
    const auto t0 = std::chrono::steady_clock::now();
    const auto run = baselines::monte_carlo_search(*cloud, opts, 1);
    add("Monte-Carlo + local search", run.best_profit,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count(),
        run.best.num_active_servers());
  }
  {
    baselines::SaAllocOptions opts;
    opts.annealing.steps = static_cast<int>(*sa_steps);
    const auto t0 = std::chrono::steady_clock::now();
    const auto run = baselines::sa_allocate(*cloud, opts, 1);
    add("simulated annealing", run.profit,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count(),
        run.allocation.num_active_servers());
  }
  table.print(std::cout);
  return 0;
}

int cmd_epochs(const Args& args) {
  const auto epochs = int_flag(args, "epochs", 8, 1, 100'000);
  const auto amplitude = double_flag(args, "amplitude", 0.4, 0.0, 0.99);
  const auto spikes = double_flag(args, "spikes", 0.02, 0.0, 1.0);
  const auto seed = seed_flag(args);
  if (!epochs || !amplitude || !spikes || !seed) return 1;
  auto cloud = load_cloud(args);
  if (!cloud) return 1;

  workload::TraceParams trace_params;
  trace_params.epochs = static_cast<int>(*epochs);
  trace_params.amplitude = *amplitude;
  trace_params.spike_probability = *spikes;
  const auto trace = workload::make_rate_trace(
      *cloud, trace_params, static_cast<std::uint64_t>(*seed));

  std::vector<model::ClientId> everyone;
  for (model::ClientId i : cloud->client_ids()) everyone.push_back(i);
  serve::OnlineDriver driver(*cloud, everyone,
                             epoch::HoltPredictor(0.6, 0.3, 1.0));
  Table table({"epoch", "mode", "changes", "profit", "rounds", "active",
               "serving", "seconds"});
  // Records the epoch; false if it left an infeasible allocation.
  auto add_row = [&](const serve::EpochStats& stats) {
    const model::Allocation& alloc = driver.server().allocation();
    table.add_row({std::to_string(stats.epoch),
                   stats.full_resolve ? "full" : "warm",
                   std::to_string(stats.demand_changes),
                   Table::num(stats.profit, 1),
                   std::to_string(stats.rounds_run),
                   std::to_string(alloc.num_active_servers()),
                   std::to_string(stats.serving),
                   Table::num(stats.wall_ms / 1000.0, 2)});
    return model::is_feasible(alloc);
  };
  bool feasible = add_row(driver.start());
  for (const auto& observed : trace)
    feasible = add_row(driver.step({}, observed)) && feasible;
  table.print(std::cout);
  if (!feasible) return fail("an epoch left an infeasible allocation");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.positional().empty()) {
    std::cout << "usage: cloudalloc_tool "
                 "<generate|allocate|audit|simulate|compare|epochs> "
                 "[--flags]\n(see the header of examples/cloudalloc_tool.cpp)"
              << "\n";
    return 1;
  }
  const std::string& command = args.positional().front();
  if (command == "generate") return cmd_generate(args);
  if (command == "allocate") return cmd_allocate(args);
  if (command == "audit") return cmd_audit(args);
  if (command == "simulate") return cmd_simulate(args);
  if (command == "compare") return cmd_compare(args);
  if (command == "epochs") return cmd_epochs(args);
  return fail("unknown command: " + command);
}
