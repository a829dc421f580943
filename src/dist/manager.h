// The central manager: the distributed counterpart of ResourceAllocator,
// and the paper's architecture made real. One dedicated thread per
// cluster runs an AgentActor servicing typed, serialized messages
// (dist/protocol.h) over a Transport; the manager broadcasts versioned
// state deltas, collects ImproveResponses under a per-round timeout
// (Mailbox::receive_for underneath), and merges them idempotently keyed on
// (epoch, round, cluster). No Allocation pointer crosses a channel —
// snapshots travel as encoded deltas, and each agent rebuilds its private
// copy from its replica. Faults (drops, delays, duplicates, reordering,
// agent crashes — see FaultPlan) cost coverage for a round, never
// correctness: a missing agent is skipped and retried via a rebased
// delta, stale/duplicated responses are discarded by sequence number, and
// the best-round checkpoint guarantees the returned allocation never
// falls below the best completed round.
//
// Determinism: every merge walks the responses in cluster order, so given
// equal options/seed (and fault plan) the run is a pure function of
// (cloud, options) at any thread count.
//
// The epoch deadline (options.alloc.time_budget_ms) is honored between
// rounds exactly as ResourceAllocator honors it between passes, and the
// per-round response timeout is additionally capped by the remaining
// budget, so a crashed agent cannot make the manager blow the epoch.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/options.h"
#include "dist/transport.h"
#include "model/allocation.h"

namespace cloudalloc::dist {

/// The one deployment: the serialized protocol over a Transport.
enum class DistMode {
  kMessagePassing,
};

struct DistributedOptions {
  DistributedOptions() = default;
  /// Converting constructor: the overwhelmingly common call shape is
  /// "these allocator knobs, default deployment" — keep
  /// `DistributedAllocator(opts)` working without partial-aggregate
  /// warnings now that there are more fields.
  DistributedOptions(alloc::AllocatorOptions alloc_options)
      : alloc(std::move(alloc_options)) {}

  alloc::AllocatorOptions alloc;
  /// Has one value and changes nothing; it stays only because the
  /// benchmark's dist_solve workload (allocbench/workloads.cpp) assigns it.
  DistMode mode = DistMode::kMessagePassing;
  /// Fault injection. Any non-zero probability wraps the channel
  /// transport in a seeded FaultyTransport.
  FaultPlan faults;
  /// How long the manager waits for the missing agent responses of one
  /// improvement round before skipping them (Mailbox::receive_for
  /// underneath). Also capped by whatever remains of
  /// alloc.time_budget_ms, so a dead agent cannot blow the epoch deadline.
  /// <= 0 waits indefinitely — only safe with a fault-free transport.
  double round_timeout_ms = 2000.0;
};

struct DistributedReport {
  double initial_profit = 0.0;
  /// Best profit seen across the initial solution and every improvement
  /// round; the returned allocation realizes exactly this value even when
  /// a later round dipped below it.
  double final_profit = 0.0;
  int rounds_run = 0;
  /// Profit after each improvement round, in round order. A trailing value
  /// below an earlier one is a "dipped" round; the regression suite uses
  /// this to pin the best-seen tracking.
  std::vector<double> round_profits;
  /// True when the epoch deadline (alloc.time_budget_ms) stopped the
  /// improvement loop before it converged or exhausted its rounds; the
  /// returned allocation is still the best completed checkpoint.
  bool truncated = false;
  /// Real messages sent over the transport (TransportStats::messages —
  /// the mailboxes' messages_sent() is the single source of truth; there
  /// is no modeled estimate).
  std::size_t messages = 0;
  /// Serialized payload bytes over the transport.
  std::size_t bytes = 0;
  /// Round-responses that never arrived (timeouts: dropped requests or
  /// responses, crashed or presumed-dead agents).
  int responses_missed = 0;
  /// Messages discarded by the idempotent merge (duplicate or
  /// wrong-round/epoch responses) plus undecodable frames.
  std::size_t stale_messages = 0;
  /// Agents the manager declared dead (failed send or two consecutive
  /// silent rounds).
  int agents_presumed_dead = 0;
  double wall_seconds = 0.0;
};

struct DistributedResult {
  model::Allocation allocation;
  DistributedReport report;
};

class DistributedAllocator {
 public:
  explicit DistributedAllocator(DistributedOptions options = {});

  DistributedResult run(const model::Cloud& cloud) const;

 private:
  DistributedOptions options_;
};

}  // namespace cloudalloc::dist
