// Added table E3c: large-population scaling of the sharded allocator —
// the 1k/10k/100k-client points behind the "scale the allocator to 100k+
// clients" work (sharded solve + SIMD kernels). Runs the full
// ResourceAllocator on the scaled fleet
// (workload::scaled_params: ~7 servers per 8 clients in 100-server
// clusters) with the scale knobs on — sharded greedy, cluster fan-out,
// single start — sweeping the thread count, and writes the measurements
// to a JSON report for CI trend tracking.
//
// The profit column doubles as a determinism witness: for a fixed client
// count it must not move across thread counts (the sharded solve is
// bit-identical at any shard/thread count). Wall-clock speedup is
// whatever the host really delivers — the JSON records the machine's
// core count, and rows running more threads than the host has cores are
// flagged oversubscribed instead of carrying a misleading speedup.
//
// Each row solves kRepeats times and reports the median wall time (a
// single 1k-client solve spreads by about ±20% on a shared VM, as wide as
// CI's throughput floor); the bench exits non-zero unless every repeat
// returns the same profit bit for bit. With --prof=1 (or
// CLOUDALLOC_PROF=1) the median run's per-phase profiler table is printed
// and embedded in the JSON report.
//
// Flags: --clients=1000,10000,100000  --threads=1,8  --shards=8
//        --fanout=4  --rounds=1 (local-search rounds; 0 = greedy only)
//        --prof=0  --out=BENCH_alloc_scale.json
// Any other flag (--help included) is an error: the bench exits 1 before
// it solves or writes anything.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc/allocator.h"
#include "bench_common.h"
#include "common/json.h"
#include "common/prof.h"
#include "common/simd.h"

using namespace cloudalloc;

namespace {

/// Timed solves per row.
constexpr int kRepeats = 3;

/// One timed solve of a row.
struct Run {
  double ms = 0.0;
  double profit = 0.0;
  Json phases;              ///< profiler table (--prof=1 only)
  std::string phase_table;  ///< the same table, printed
};

std::vector<int> parse_int_list(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) out.push_back(std::stoi(tok));
  return out;
}

Json phase_table_json() {
  JsonArray phases;
  for (const prof::PhaseRow& r : prof::aggregate()) {
    phases.push_back(Json(JsonObject{
        {"zone", Json(r.name)},
        {"count", Json(static_cast<double>(r.count))},
        {"ms", Json(r.total_ms)},
    }));
  }
  return Json(std::move(phases));
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (const auto flag = args.unknown_flag(
          {"clients", "threads", "shards", "fanout", "rounds", "prof", "out"})) {
    std::cerr << "error: unknown flag --" << *flag << "\n";
    return 1;
  }
  const std::vector<int> client_counts =
      parse_int_list(args.get("clients", "1000,10000,100000"));
  const std::vector<int> thread_counts =
      parse_int_list(args.get("threads", "1,8"));
  const int shards = static_cast<int>(args.get_int("shards", 8));
  const int fanout = static_cast<int>(args.get_int("fanout", 4));
  const int rounds = static_cast<int>(args.get_int("rounds", 1));
  const bool with_prof = args.get_int("prof", 0) != 0 || prof::enabled();
  const std::string out_path = args.get("out", "BENCH_alloc_scale.json");
  const int hw_threads = static_cast<int>(std::thread::hardware_concurrency());

  if (with_prof) prof::set_enabled(true);

  bench::print_header("Large-population allocator scaling",
                      "sharded solve + SIMD kernels");
  Table table({"clients", "clusters", "threads", "shards", "ms",
               "clients_per_s", "profit", "oversub"});

  JsonArray rows;
  bool deterministic = true;
  for (int clients : client_counts) {
    const workload::ScenarioParams params = workload::scaled_params(clients);
    const auto cloud = workload::make_scenario(params, 11);

    double base_ms = 0.0;
    for (int threads : thread_counts) {
      alloc::AllocatorOptions opts;
      opts.num_initial_solutions = 1;
      opts.max_local_search_rounds = rounds;
      opts.num_shards = shards;
      opts.cluster_fanout = fanout;
      opts.num_threads = threads;

      std::vector<Run> runs(kRepeats);
      for (Run& run : runs) {
        if (with_prof) prof::reset();
        bench::Stopwatch sw;
        run.profit =
            alloc::ResourceAllocator(opts).run(cloud).report.final_profit;
        run.ms = sw.seconds() * 1000.0;
        if (with_prof) {
          run.phases = phase_table_json();
          std::ostringstream printed;
          prof::print_table(printed);
          run.phase_table = printed.str();
        }
      }
      for (const Run& run : runs) {
        if (std::bit_cast<std::uint64_t>(run.profit) ==
            std::bit_cast<std::uint64_t>(runs.front().profit))
          continue;
        deterministic = false;
        std::cout << "FAIL: clients=" << clients << " threads=" << threads
                  << ": repeated solves returned different profits\n";
      }
      std::sort(runs.begin(), runs.end(),
                [](const Run& a, const Run& b) { return a.ms < b.ms; });
      const Run& median = runs[kRepeats / 2];
      const double ms = median.ms;
      JsonArray ms_runs;
      for (const Run& run : runs) ms_runs.push_back(Json(run.ms));
      if (threads == thread_counts.front()) base_ms = ms;
      const double rate = static_cast<double>(clients) / (ms / 1000.0);
      // More threads than the host has cores: wall clock measures
      // scheduler churn, not scaling — flag the row and drop the speedup
      // instead of reporting a misleading ratio.
      const bool oversubscribed = hw_threads > 0 && threads > hw_threads;

      table.add_row({std::to_string(clients),
                     std::to_string(params.num_clusters),
                     std::to_string(threads), std::to_string(shards),
                     Table::num(ms, 1), Table::num(rate, 0),
                     Table::num(median.profit, 1),
                     oversubscribed ? "yes" : "no"});
      JsonObject row{
          {"clients", Json(clients)},
          {"clusters", Json(params.num_clusters)},
          {"threads", Json(threads)},
          {"shards", Json(shards)},
          {"fanout", Json(fanout)},
          {"local_search_rounds", Json(rounds)},
          {"ms", Json(ms)},
          {"ms_runs", Json(std::move(ms_runs))},
          {"clients_per_s", Json(rate)},
          {"oversubscribed", Json(oversubscribed)},
          {"speedup_vs_first",
           oversubscribed ? Json(nullptr) : Json(base_ms / ms)},
          {"profit", Json(median.profit)},
      };
      if (with_prof) {
        row.emplace("phases", median.phases);
        std::cout << "\n-- phases (median run): clients=" << clients
                  << " threads=" << threads << " --\n"
                  << median.phase_table;
      }
      rows.push_back(Json(std::move(row)));
    }
  }
  table.print(std::cout);

  const Json report(JsonObject{
      {"bench", Json("tab_alloc_scale")},
      {"hardware_threads", Json(hw_threads)},
      {"lane_width", Json(simd::active_width())},
      {"shards", Json(shards)},
      {"fanout", Json(fanout)},
      {"rows", Json(std::move(rows))},
  });
  std::ofstream out(out_path);
  out << report.dump(1) << "\n";
  std::cout << "\nwrote " << out_path
            << "\nnote: profit must be identical down each client-count "
               "block — the sharded\nsolve is bit-identical at any "
               "shard/thread count. speedup_vs_first is real\nwall clock "
               "on this host; rows with threads > hardware_threads are "
               "flagged\noversubscribed and carry no speedup.\n";
  return deterministic ? 0 : 1;
}
