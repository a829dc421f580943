#include "alloc/sharded.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>

#include "alloc/assign_distribute.h"
#include "alloc/move_engine.h"
#include "common/check.h"
#include "common/prof.h"
#include "model/alloc_state.h"
#include "model/residual.h"

namespace cloudalloc::alloc {

using model::Allocation;
using model::ClientId;
using model::ResidualView;

namespace {

/// Clients priced per frozen snapshot. Fixed (never derived from the shard
/// or worker count) so the block partition — and with it every snapshot a
/// plan is priced against — is a pure function of the client order. Larger
/// blocks give the shards more probes per freeze but price staler, which
/// costs sequential re-price fallbacks at merge time.
constexpr int kBlock = 1024;

/// One block's merge, run as a fan-out of roles. Role 0 is the merge: it
/// applies every plan through the engine in block order, as a one-thread
/// merge would. Every other role is a helper that settles later clients
/// ahead of it: the fits check, and the live re-price of a stale plan.
/// Settling client idx reads only the view entries of its probe window's
/// servers, so it may run once the merge has applied every earlier client
/// whose window meets idx's (needs_[idx] of them, in block order): the
/// pending applies write other clusters' entries and the ledger, which
/// settling never reads. Each plan is therefore the one a one-thread merge
/// computes, whichever thread settles it.
///
/// Every role claims clients in block order, and only a client whose
/// needed applies are made. A helper sleeps on the applied counter until
/// the first unclaimed client is ready. The merge, while client idx is
/// pending, settles the first unclaimed client if it is ready, and
/// otherwise sleeps until idx's helper, which needs nothing more, is done.
/// So no role waits on work that no thread runs, whichever roles the
/// pool's threads take up.
class BlockMerge {
 public:
  /// `plans[idx]` is client clients[idx]'s snapshot plan (nullopt: the
  /// merge skips the client). Runs the dependency pass.
  BlockMerge(model::AllocState& state, MoveEngine& mover,
             const AllocatorOptions& opts, const ClientId* clients,
             std::vector<std::optional<InsertionPlan>>& plans)
      : state_(state), mover_(mover), opts_(opts), clients_(clients),
        plans_(plans), len_(static_cast<int>(plans.size())),
        needs_(plans.size(), 0), settled_(plans.size()) {
    const int num_clusters = state.cloud().num_clusters();
    // Per cluster: 1 + the latest client whose window covers it.
    std::vector<int> last(static_cast<std::size_t>(num_clusters), 0);
    for (int idx = 0; idx < len_; ++idx) {
      if (!plans_[static_cast<std::size_t>(idx)]) continue;  // writes nothing
      const ProbeWindow window =
          probe_window(clients_[idx], num_clusters, opts.cluster_fanout);
      int& need = needs_[static_cast<std::size_t>(idx)];
      for (int t = 0; t < window.size; ++t) {
        int& seen =
            last[static_cast<std::size_t>((window.first + t) % num_clusters)];
        need = std::max(need, seen);
        seen = idx + 1;
      }
    }
  }

  /// Role 0: applies every plan in block order.
  void merge(double& profit_now) {
    try {
      for (int idx = 0; idx < len_; ++idx) {
        // While idx is pending, settle the first unclaimed client if the
        // applies it needs are made (idx itself, when no helper claimed
        // it); otherwise sleep until idx's helper is done.
        std::atomic<int>& settled = settled_[static_cast<std::size_t>(idx)];
        int status = settled.load(std::memory_order_acquire);
        while (status == kPending) {
          int next = claimed_.load();
          if (next < len_ && needs_[static_cast<std::size_t>(next)] <= idx) {
            if (claimed_.compare_exchange_strong(next, next + 1)) settle(next);
          } else {
            settled.wait(kPending, std::memory_order_acquire);
          }
          status = settled.load(std::memory_order_acquire);
        }
        if (status == kFailed) break;
        // Same admission rule as the sequential greedy: every feasible
        // client is served unless allow_rejection screens a money-losing
        // score.
        const std::optional<InsertionPlan>& plan =
            plans_[static_cast<std::size_t>(idx)];
        if (plan && !(opts_.allow_rejection && plan->score < 0.0)) {
          CHECK(!state_.ledger().is_assigned(clients_[idx]));
          mover_.apply(clients_[idx], plan, profit_now);
        }
        applied_.store(idx + 1, std::memory_order_release);
        applied_.notify_all();
      }
    } catch (...) {
      release_helpers();
      throw;
    }
    release_helpers();
  }

  /// Every other role: claims the first unclaimed client once the
  /// applies it needs are made, settles it, and repeats; sleeps on the
  /// applied counter in between.
  void help() {
    for (int next = claimed_.load(); next < len_; next = claimed_.load()) {
      const int done = applied_.load(std::memory_order_acquire);
      if (needs_[static_cast<std::size_t>(next)] > done) {
        applied_.wait(done, std::memory_order_acquire);
      } else if (claimed_.compare_exchange_strong(next, next + 1)) {
        settle(next);
      }
    }
  }

 private:
  static constexpr int kPending = 0, kSettled = 1, kFailed = 2;

  /// Revalidates claimed client idx's plan against the live view,
  /// re-prices it when it no longer fits, and hands it to the merge.
  void settle(int idx) {
    std::atomic<int>& settled = settled_[static_cast<std::size_t>(idx)];
    std::optional<InsertionPlan>& plan = plans_[static_cast<std::size_t>(idx)];
    try {
      if (plan && !mover_.fits(clients_[idx], *plan)) {
        PROF_ZONE("sharded.reprice");
        plan = best_insertion(state_.view(), clients_[idx], opts_);
      }
    } catch (...) {
      settled.store(kFailed, std::memory_order_release);
      settled.notify_one();
      throw;
    }
    settled.store(kSettled, std::memory_order_release);
    settled.notify_one();
  }

  /// Lets every helper finish: nothing is left to claim, and no client
  /// waits for an apply. Runs when the merge ends, normally or not (the
  /// fan-out then rethrows the failure).
  void release_helpers() {
    claimed_.store(len_);
    applied_.store(len_, std::memory_order_release);
    applied_.notify_all();
  }

  model::AllocState& state_;
  MoveEngine& mover_;
  const AllocatorOptions& opts_;
  const ClientId* const clients_;
  std::vector<std::optional<InsertionPlan>>& plans_;
  const int len_;
  std::vector<int> needs_;  ///< applies client idx waits for
  std::vector<std::atomic<int>> settled_;   ///< kPending/kSettled/kFailed
  alignas(64) std::atomic<int> claimed_{0};  ///< next unclaimed client
  alignas(64) std::atomic<int> applied_{0};  ///< clients the merge finished
};

}  // namespace

Allocation sharded_greedy_insert(const model::Cloud& cloud,
                                 const std::vector<ClientId>& order,
                                 const AllocatorOptions& opts,
                                 const dist::ParallelEval& eval) {
  model::AllocState state(cloud);
  MoveEngine mover(state, opts);
  const int shards = std::max(1, opts.num_shards);
  const int n = static_cast<int>(order.size());
  double profit_now = state.profit();

  std::vector<std::optional<InsertionPlan>> plans;
  for (int b0 = 0; b0 < n; b0 += kBlock) {
    const int len = std::min(kBlock, n - b0);

    // Freeze: settle the engine, then price the whole block against its
    // view. Every shard reads the one frozen view (its const reads are
    // pure), and every plan is a pure function of the snapshot values, so
    // neither the shard grain nor the scheduling can change a plan bit.
    {
      PROF_ZONE("sharded.price_block");
      profit_now = state.profit();
      CHECK(state.ledger().profit_settled());
      const ResidualView& frozen = state.view();
      plans.assign(static_cast<std::size_t>(len), std::nullopt);
      const int grain = (len + shards - 1) / shards;
      eval.for_chunks(len, grain, [&](int begin, int end) {
        for (int idx = begin; idx < end; ++idx) {
          const ClientId i = order[static_cast<std::size_t>(b0 + idx)];
          plans[static_cast<std::size_t>(idx)] =
              best_insertion(frozen, i, opts);
        }
      });
    }

    // Merge: apply in block order against the live engine. Earlier merges
    // may have consumed the capacity a snapshot plan assumed, so each plan
    // is revalidated and re-priced live when it no longer fits; the pool's
    // threads settle later clients while the merge applies (BlockMerge).
    PROF_ZONE("sharded.merge_block");
    BlockMerge merge(state, mover, opts, &order[static_cast<std::size_t>(b0)],
                     plans);
    eval.for_n(eval.threads(), [&](int role) {
      if (role == 0) {
        merge.merge(profit_now);
      } else {
        merge.help();
      }
    });
  }
  return std::move(state).release();
}

}  // namespace cloudalloc::alloc
