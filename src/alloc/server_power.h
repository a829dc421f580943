// TurnON_servers / TurnOFF_servers (Section V-B-2): the integer moves of
// the local search, trading utility improvements against server operation
// cost.
//
// TurnON: for each server class with an inactive unit in the cluster, one
// candidate server is provisionally opened; degraded clients "bid" by
// re-running their full insertion with the candidate available, with the
// fixed cost P0 treated as sunk during bidding (the paper's decomposition)
// and charged at the commit gate: the whole bundle is kept only if true
// profit improved.
//
// TurnOFF: active servers are ranked by their approximated utility
// contribution, lowest first; each candidate's clients are evicted and
// re-inserted over the remaining *active* servers of the cluster, and the
// shutdown is committed only if true profit improved.
//
// Both passes speculate in place under savepoints over cluster k (see
// model::AllocState::save), so a call costs O(cluster), not O(cloud).
#pragma once

#include "alloc/options.h"
#include "model/alloc_state.h"

namespace cloudalloc::alloc {

/// One TurnON pass over cluster k. Returns the realized profit delta.
double turn_on_servers(model::AllocState& state, model::ClusterId k,
                       const AllocatorOptions& opts);

/// One TurnOFF pass over cluster k. Returns the realized profit delta.
double turn_off_servers(model::AllocState& state, model::ClusterId k,
                        const AllocatorOptions& opts);

/// Runs both passes over every cluster; returns the total delta.
double adjust_server_power(model::AllocState& state,
                           const AllocatorOptions& opts);

}  // namespace cloudalloc::alloc
