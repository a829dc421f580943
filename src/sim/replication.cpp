#include "sim/replication.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "dist/parallel_eval.h"

namespace cloudalloc::sim {

std::vector<std::uint64_t> replication_seeds(std::uint64_t base_seed, int n) {
  CHECK(n >= 0);
  // A dedicated stream (not the base seed itself) keeps replication 0
  // decorrelated from any other user of the same seed — the allocator
  // and workload generators are typically seeded with it too.
  Rng seeder(base_seed);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(n));
  for (auto& s : seeds) s = seeder();
  return seeds;
}

ReplicationReport run_replications(const model::Allocation& alloc,
                                   const ReplicationOptions& opts) {
  CHECK(opts.replications >= 1);
  const int R = opts.replications;
  const auto seeds =
      replication_seeds(opts.sim.seed, R);

  std::vector<SimulationReport> runs(static_cast<std::size_t>(R));
  auto run_one = [&](int r) {
    SimOptions sopts = opts.sim;
    sopts.seed = seeds[static_cast<std::size_t>(r)];
    runs[static_cast<std::size_t>(r)] = simulate_allocation(alloc, sopts);
  };
  const int workers = std::min(opts.num_threads, R);
  const dist::ParallelEval eval(
      workers > 1 ? &dist::ThreadPool::shared(workers) : nullptr);
  eval.for_n(R, run_one);

  // Merge in replication order: every replication simulates the same
  // allocation, so client/server row r lines up across runs.
  ReplicationReport report;
  report.replications = R;
  const SimulationReport& first = runs.front();
  for (const SimulationReport& run : runs) {
    CHECK(run.clients.size() == first.clients.size());
    CHECK(run.servers.size() == first.servers.size());
    report.total_completed += run.total_completed;
    report.events_executed += run.events_executed;
  }

  Summary errors;
  for (std::size_t c = 0; c < first.clients.size(); ++c) {
    ClientReplicationStats stats;
    stats.id = first.clients[c].id;
    stats.analytic_response = first.clients[c].analytic_response;
    Summary means, p50s, p95s, p99s;
    for (const SimulationReport& run : runs) {
      const ClientSimStats& cs = run.clients[c];
      stats.completed_total += cs.completed;
      if (cs.completed == 0) continue;  // no observation this replication
      means.add(cs.mean_response);
      p50s.add(cs.p50);
      p95s.add(cs.p95);
      p99s.add(cs.p99);
    }
    stats.observations = static_cast<int>(means.count());
    stats.mean_response = means.mean();
    stats.ci95 = means.ci95_halfwidth();
    stats.p50 = p50s.mean();
    stats.p95 = p95s.mean();
    stats.p99 = p99s.mean();
    if (stats.observations > 0 && std::isfinite(stats.analytic_response) &&
        stats.analytic_response > 0.0)
      errors.add(std::fabs(stats.mean_response - stats.analytic_response) /
                 stats.analytic_response);
    report.clients.push_back(stats);
  }

  for (std::size_t s = 0; s < first.servers.size(); ++s) {
    ServerReplicationStats stats;
    stats.id = first.servers[s].id;
    stats.analytic_util_p = first.servers[s].analytic_util_p;
    Summary utils;
    for (const SimulationReport& run : runs)
      utils.add(run.servers[s].measured_util_p);
    stats.measured_util_p = utils.mean();
    stats.ci95 = utils.ci95_halfwidth();
    report.servers.push_back(stats);
  }

  report.mean_abs_rel_error = errors.mean();
  return report;
}

}  // namespace cloudalloc::sim
