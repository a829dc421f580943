// Parallel independent replications of the discrete-event simulator.
//
// One simulation run yields a *within-run* confidence interval on each
// client's mean response time — correlated samples from a single sample
// path, which understate the true uncertainty. The standard methodology
// (and the one the paper's related simulation campaigns use) is R
// independent replications: each replication's mean is one observation,
// and the across-replication sample variance gives a proper CI.
//
// Replications are embarrassingly parallel, so the runner fans them out
// through dist::ParallelEval. Per-replication seeds are derived up front
// from the base seed by drawing from a dedicated xoshiro256** stream
// (replication_seeds), and merging walks replication results in index
// order — so the report is bit-identical at 1 worker thread or N.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/runner.h"

namespace cloudalloc::sim {

struct ReplicationOptions {
  /// Per-replication simulation options; `sim.seed` is the *base* seed
  /// every replication seed is derived from.
  SimOptions sim;
  int replications = 8;
  /// Worker threads for the fan-out; <= 1 runs inline. Results do not
  /// depend on this value.
  int num_threads = 1;
};

/// Across-replication statistics for one client. `mean_response` is the
/// mean of per-replication means and `ci95` the across-replication 95%
/// half-width — one observation per replication, not per request.
struct ClientReplicationStats {
  model::ClientId id{0};
  /// Replications in which this client completed at least one measured
  /// request (only those contribute observations).
  int observations = 0;
  std::size_t completed_total = 0;
  double mean_response = 0.0;
  double ci95 = 0.0;
  double analytic_response = 0.0;
  // Means of per-replication tail percentiles; 0 when disabled.
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct ServerReplicationStats {
  model::ServerId id{0};
  double measured_util_p = 0.0;  ///< across-replication mean
  double ci95 = 0.0;             ///< across-replication 95% half-width
  double analytic_util_p = 0.0;
};

struct ReplicationReport {
  std::vector<ClientReplicationStats> clients;  ///< assigned clients only
  std::vector<ServerReplicationStats> servers;  ///< hosting servers only
  int replications = 0;
  std::size_t total_completed = 0;   ///< summed over replications
  std::size_t events_executed = 0;   ///< summed over replications
  /// Mean over clients of |mean_response - analytic| / analytic, on the
  /// across-replication means.
  double mean_abs_rel_error = 0.0;
};

/// The deterministic per-replication seed schedule: `n` draws from an
/// Rng seeded with `base_seed`. Exposed so tests can pin it.
std::vector<std::uint64_t> replication_seeds(std::uint64_t base_seed, int n);

/// Runs `opts.replications` independently seeded simulations of the
/// allocation (in parallel when opts.num_threads > 1) and merges them.
/// Bit-identical for a given (allocation, opts.sim, replications) at any
/// thread count.
ReplicationReport run_replications(const model::Allocation& alloc,
                                   const ReplicationOptions& opts);

}  // namespace cloudalloc::sim
