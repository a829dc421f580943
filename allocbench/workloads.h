// The benchmark's workloads. Each builds its inputs from the seed before
// any timed region, measures for the requested number of seconds, checks
// every output, and fills a Result with the metrics it measured; run.py
// keeps those BENCHMARK.json asks for.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace allocbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (chrome://tracing JSON); empty
  /// keeps them in memory only.
  std::string spans_path;
};

/// A hash of the inputs `workload` generates from `seed`: the cloud, plus
/// the churn stream (warm_churn), the replication seeds (sim_replay) or the
/// solver seed (dist_solve); 0 when the name is unknown.
std::uint64_t input_fingerprint(const std::string& workload,
                                std::uint64_t seed);

/// Runs one workload into `result`; false when the name is unknown.
bool run_workload(const RunConfig& config, Result& result);

/// Reproduces the serving layer's known infeasible-epoch failure (see
/// NOTES.md): warm_churn's configuration at seed 11 for 12 epochs, one
/// operation per epoch, failed when the epoch's allocation is infeasible.
void reproduce_stay_branch(Result& result);

}  // namespace allocbench
