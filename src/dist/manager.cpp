#include "dist/manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/initial.h"
#include "alloc/reassign.h"
#include "common/check.h"
#include "common/rng.h"
#include "dist/cluster_agent.h"
#include "dist/codec.h"
#include "dist/parallel_eval.h"
#include "dist/protocol.h"
#include "dist/thread_pool.h"
#include "dist/transport.h"
#include "model/alloc_state.h"
#include "model/evaluator.h"

namespace cloudalloc::dist {

using model::Allocation;
using model::ClientId;
using model::Cloud;
using model::ClusterId;

namespace {

using Clock = std::chrono::steady_clock;

/// Consecutive silent rounds after which an agent is presumed dead and no
/// longer waited for (its cluster keeps its last merged placements). A
/// late response from a presumed-dead agent revives it.
constexpr int kMissThreshold = 2;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Debug-mode audit of an agent's self-reported profit_delta against the
/// delta the merge actually realized on the manager's ledger. Profit is
/// separable by cluster (clients and servers belong to exactly one), so
/// the two must agree up to summation-order ulps; a stale or duplicated
/// improvement that slipped past the sequence checks would show up here
/// as a gross mismatch instead of silently corrupting round accounting.
void debug_cross_check_delta(model::AllocState& state, double before,
                             double reported_delta, ClusterId k) {
#ifndef NDEBUG
  const double realized = state.profit() - before;
  const double tol =
      1e-6 * std::max({std::fabs(realized), std::fabs(reported_delta), 1.0});
  CHECK_MSG(std::fabs(realized - reported_delta) <= tol,
            "cluster improvement accounting mismatch (stale/duplicated "
            "message merged?)");
  (void)k;
#else
  (void)state;
  (void)before;
  (void)reported_delta;
  (void)k;
#endif
}

/// Applies one agent's improvement rows to the engine (called in cluster
/// order, so the merge is deterministic).
void merge_improvement(model::AllocState& state,
                       const protocol::ClusterImprovement& improvement,
                       ClusterId k) {
#ifndef NDEBUG
  const double before = state.profit();
#else
  const double before = 0.0;
#endif
  for (const protocol::ClientPlacements& row : improvement.placements) {
    if (row.cluster == model::kNoCluster || row.placements.empty())
      state.clear(row.client);
    else
      state.assign(row.client, k,
                   std::vector<model::Placement>(row.placements));
  }
  debug_cross_check_delta(state, before, improvement.profit_delta, k);
}

/// Bitwise row identity: same cluster and the same slices, double for
/// double. The delta composer uses it to ship only real changes.
bool rows_equal(const protocol::ClientPlacements& a,
                const protocol::ClientPlacements& b) {
  if (a.cluster != b.cluster || a.placements.size() != b.placements.size())
    return false;
  for (std::size_t s = 0; s < a.placements.size(); ++s) {
    const model::Placement& pa = a.placements[s];
    const model::Placement& pb = b.placements[s];
    if (pa.server != pb.server || pa.psi != pb.psi || pa.phi_p != pb.phi_p ||
        pa.phi_n != pb.phi_n)
      return false;
  }
  return true;
}

/// Placement rows of the full ledger, dense in client id: what the
/// replicas hold once every delta has reached them.
std::vector<protocol::ClientPlacements> ledger_rows(const Allocation& ledger) {
  std::vector<protocol::ClientPlacements> rows;
  const Cloud& cloud = ledger.cloud();
  rows.resize(static_cast<std::size_t>(cloud.num_clients()));
  for (ClientId i : cloud.client_ids()) {
    protocol::ClientPlacements& row = rows[static_cast<std::size_t>(i.index())];
    row.client = i;
    if (!ledger.is_assigned(i)) continue;
    row.cluster = ledger.cluster_of(i);
    row.placements = ledger.placements(i);
  }
  return rows;
}

}  // namespace

DistributedAllocator::DistributedAllocator(DistributedOptions options)
    : options_(options) {}

DistributedResult DistributedAllocator::run(const Cloud& cloud) const {
  const auto start = Clock::now();
  const alloc::AllocatorOptions& aopts = options_.alloc;
  const int K = cloud.num_clusters();
  // Epoch id: identifies this decision epoch in every message. Truncated
  // to 32 bits so it survives the JSON double round trip exactly.
  const std::uint64_t epoch =
      static_cast<std::uint32_t>(aopts.seed ^ (aopts.seed >> 32));

  std::unique_ptr<Transport> transport =
      std::make_unique<ChannelTransport>(K);
  if (options_.faults.any())
    transport = std::make_unique<FaultyTransport>(std::move(transport),
                                                  options_.faults);

  // Dedicated actor threads — the agents of Figure 1. They share the
  // immutable Cloud (static problem data); all allocation state reaches
  // them as encoded deltas.
  std::vector<std::thread> actors;
  actors.reserve(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k)
    actors.emplace_back([&cloud, aopts, epoch, k, t = transport.get()] {
      AgentActor(cloud, ClusterId{k}, aopts, epoch, t).run();
    });
  // Whatever happens below, the channels close and the actors join.
  struct Shutdown {
    Transport* transport;
    std::vector<std::thread>* actors;
    ~Shutdown() {
      transport->close_all();
      for (std::thread& t : *actors) t.join();
    }
  } shutdown{transport.get(), &actors};

  DistributedReport report;

  // Multi-start greedy initial solution, manager-local (identical to the
  // sequential allocator; the remote-bid deployment of this phase exists
  // in the protocol — see BidRequest — and only the protocol tests
  // exercise it).
  const int workers = resolve_workers(aopts.num_threads);
  ThreadPool* pool = workers > 1 ? &ThreadPool::shared(workers) : nullptr;
  {
    const ParallelEval eval(pool);
    Rng rng(aopts.seed);
    Allocation initial = alloc::build_initial_solution(cloud, aopts, rng, eval);
    const double p0 = model::profit(initial);
    report.initial_profit = p0;

    // The ledger, the best round's checkpoint and the stall count.
    model::AllocState state(std::move(initial));
    model::AllocState::Checkpoint best = state.checkpoint(p0);
    double best_profit = p0;
    int stalled_rounds = 0;

    // Versioned replication state: one bump per merged change set. The
    // initial solution is version 1; every client it touched is stamped.
    std::int64_t version = 1;
    std::vector<std::int64_t> client_version(
        static_cast<std::size_t>(cloud.num_clients()), 0);
    std::vector<protocol::ClientPlacements> shipped_rows =
        ledger_rows(state.ledger());
    for (ClientId i : cloud.client_ids())
      if (state.ledger().is_assigned(i))
        client_version[static_cast<std::size_t>(i.index())] = 1;
    std::vector<std::int64_t> acked(static_cast<std::size_t>(K), 0);
    std::vector<int> misses(static_cast<std::size_t>(K), 0);
    std::vector<char> dead(static_cast<std::size_t>(K), 0);

    const auto compose_delta = [&](int k) {
      protocol::StateDelta delta;
      delta.base_version = acked[static_cast<std::size_t>(k)];
      delta.target_version = version;
      const Allocation& ledger = state.ledger();
      for (ClientId i : cloud.client_ids()) {
        const auto idx = static_cast<std::size_t>(i.index());
        if (client_version[idx] <= delta.base_version) continue;
        protocol::ClientPlacements row;
        row.client = i;
        if (ledger.is_assigned(i)) {
          row.cluster = ledger.cluster_of(i);
          row.placements = ledger.placements(i);
        }
        delta.changes.push_back(std::move(row));
      }
      return delta;
    };

    for (int round = 0; round < aopts.max_local_search_rounds; ++round) {
      // --- broadcast this round's ImproveRequests.
      for (int k = 0; k < K; ++k) {
        if (dead[static_cast<std::size_t>(k)]) continue;
        protocol::ImproveRequest req;
        req.epoch = epoch;
        req.round = round;
        req.cluster = ClusterId{k};
        req.delta = compose_delta(k);
        if (!transport->send_to_agent(
                k, codec::encode(protocol::AgentMessage{std::move(req)}))) {
          // Refused send = closed channel = crashed agent. Skip-and-
          // continue; its cluster keeps its last merged placements.
          dead[static_cast<std::size_t>(k)] = 1;
          ++report.agents_presumed_dead;
        }
      }

      // --- collect responses under the per-round deadline.
      std::vector<std::optional<protocol::ImproveResponse>> got(
          static_cast<std::size_t>(K));
      int expected = 0;
      for (int k = 0; k < K; ++k)
        if (!dead[static_cast<std::size_t>(k)]) ++expected;
      int received = 0;
      // The response timeout is additionally capped by the remaining
      // epoch budget: a silent agent must not blow the deadline.
      double wait_ms = aopts.dist_round_timeout_ms;
      if (aopts.time_budget_ms > 0.0) {
        const double remaining = aopts.time_budget_ms - ms_since(start);
        wait_ms = wait_ms <= 0.0 ? remaining : std::min(wait_ms, remaining);
        if (wait_ms < 1.0) wait_ms = 1.0;  // drain what already arrived
      }
      const auto round_deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 wait_ms > 0.0 ? wait_ms : 0.0));
      while (received < expected) {
        double remaining_ms = -1.0;
        if (wait_ms > 0.0) {
          remaining_ms = std::chrono::duration<double, std::milli>(
                             round_deadline - Clock::now())
                             .count();
          if (remaining_ms <= 0.0) break;
        }
        auto envelope = transport->manager_receive_for(remaining_ms);
        if (!envelope) break;  // timed out (or transport torn down)
        auto message = codec::decode_manager_message(envelope->bytes);
        if (!message) {
          ++report.stale_messages;  // undecodable frame
          continue;
        }
        const auto* resp = std::get_if<protocol::ImproveResponse>(&*message);
        if (resp == nullptr) {  // a BidResponse has no business here
          ++report.stale_messages;
          continue;
        }
        const auto k = static_cast<std::size_t>(resp->cluster.index());
        if (resp->epoch != epoch || k >= got.size()) {
          ++report.stale_messages;
          continue;
        }
        // Versions are monotone on the agent, so folding ANY response's
        // version into the ack is safe — even a stale round's.
        acked[k] = std::max(acked[k], resp->state_version);
        if (resp->round != round || got[k].has_value()) {
          ++report.stale_messages;  // late duplicate or wrong round
          continue;
        }
        got[k] = *resp;
        if (!dead[k]) ++received;
      }

      // --- idempotent merge in cluster order; skip-and-continue for the
      // missing. `applied == false` means the agent could not reach this
      // round's base state — its improvement does not exist; rebase next
      // round from the version it reported.
      for (int k = 0; k < K; ++k) {
        const auto idx = static_cast<std::size_t>(k);
        if (got[idx].has_value() && got[idx]->applied) {
          merge_improvement(state, got[idx]->improvement, ClusterId{k});
          acked[idx] = version;  // it reached target and we merged it
          misses[idx] = 0;
          dead[idx] = 0;  // a response revives a presumed-dead agent
        } else if (!dead[idx]) {
          ++report.responses_missed;
          if (!got[idx].has_value() &&
              ++misses[idx] >= kMissThreshold) {
            dead[idx] = 1;
            ++report.agents_presumed_dead;
          }
        }
      }
      if (aopts.enable_reassign) {
        const ParallelEval reassign_eval(pool);
        alloc::reassign_pass_snapshot(state, aopts, reassign_eval);
      }
      state.debug_check_invariants();

      // One version bump per round; stamp exactly the clients whose rows
      // the merge or the reassign pass rewrote (bitwise row diff against
      // what was last shipped), so the next deltas carry precisely the
      // changes and nothing else.
      ++version;
      {
        std::vector<protocol::ClientPlacements> now =
            ledger_rows(state.ledger());
        for (ClientId i : cloud.client_ids()) {
          const auto idx = static_cast<std::size_t>(i.index());
          if (!rows_equal(now[idx], shipped_rows[idx])) {
            client_version[idx] = version;
            shipped_rows[idx] = std::move(now[idx]);
          }
        }
      }

      const double profit_after = state.profit();
      report.round_profits.push_back(profit_after);
      report.rounds_run = round + 1;
      const double significant =
          aopts.steady_tolerance * std::max(std::fabs(best_profit), 1.0);
      if (profit_after > best_profit + significant) {
        stalled_rounds = 0;
      } else {
        ++stalled_rounds;
      }
      if (profit_after > best_profit) {
        best_profit = profit_after;
        best = state.checkpoint(profit_after);
      }
      // The epoch deadline is checked between rounds, exactly like the
      // sequential allocator checks between passes (allocator.cpp).
      if (aopts.time_budget_ms > 0.0 &&
          ms_since(start) >= aopts.time_budget_ms) {
        report.truncated = true;
        break;
      }
      // Dips can precede a recovering round; stop only after two rounds
      // without a new best.
      if (stalled_rounds >= 2) break;
    }

    // Polite shutdown (the Shutdown guard above also closes channels for
    // the crash/exception paths). Refused sends just mean the agent is
    // already gone.
    for (int k = 0; k < K; ++k)
      (void)transport->send_to_agent(
          k, codec::encode(protocol::AgentMessage{protocol::Shutdown{epoch}}));

    report.final_profit = best_profit;
    const TransportStats stats = transport->stats();
    report.messages = stats.messages;
    report.bytes = stats.bytes;
    report.wall_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return DistributedResult{state.materialize(best), report};
  }
}

}  // namespace cloudalloc::dist
