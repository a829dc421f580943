// Arrival-rate traces for multi-epoch experiments: per-client rate series
// with a shared diurnal component, optional linear growth, multiplicative
// noise, and rare demand spikes. Feeds serve::OnlineDriver in the epochs
// example, `cloudalloc_tool epochs` and the epoch-adaptation bench.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "model/cloud.h"

namespace cloudalloc::workload {

struct TraceParams {
  int epochs = 8;
  int period = 8;              ///< epochs per diurnal cycle
  double amplitude = 0.4;      ///< diurnal swing as a fraction of the base
  double noise = 0.1;          ///< multiplicative uniform noise half-width
  double growth_per_epoch = 0.0;  ///< compound per-epoch demand growth
  double spike_probability = 0.0; ///< chance a client spikes in an epoch
  double spike_factor = 3.0;      ///< spike multiplier
};

/// `result[t][i]` = client i's observed arrival rate in epoch t, floored
/// at a small positive value. Deterministic in (cloud, params, seed).
std::vector<std::vector<double>> make_rate_trace(const model::Cloud& cloud,
                                                 const TraceParams& params,
                                                 std::uint64_t seed);

}  // namespace cloudalloc::workload
