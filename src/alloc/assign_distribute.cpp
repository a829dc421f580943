#include "alloc/assign_distribute.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "alloc/share_policy.h"
#include "common/check.h"
#include "common/mathutil.h"
#include "model/residual.h"
#include "opt/dp.h"
#include "queueing/batch.h"
#include "queueing/gps.h"

namespace cloudalloc::alloc {
namespace {

using model::Allocation;
using model::Client;
using model::ClientId;
using model::Cloud;
using model::ClusterId;
using model::Placement;
using model::ResidualView;
using model::ServerClass;
using model::ServerId;
using units::ArrivalRate;
using units::Share;
using units::Time;
using units::Work;
using units::WorkRate;

/// Shares chosen for one (server, quantum-count) option plus its score.
struct SliceOption {
  double phi_p = 0.0;
  double phi_n = 0.0;
  double score = opt::kDpInfeasible;
};

/// The client-side constants of one Assign_Distribute(i, k) probe.
struct Probe {
  const Cloud& cloud;
  const Client& c;
  double slope;  ///< linearized utility slope
  Time zc;       ///< utility zero-crossing
  ShareSizing sizing;
  const AllocatorOptions& opts;
  int G;
};

/// What a probe's slices need on one server class: the stability floor of
/// a one-quantum slice and the share demand at g = G, per resource.
struct ClassNeeds {
  double floor1_p = 0.0;
  double floor1_n = 0.0;
  Share need_p, need_n;
};

/// A score row's exact key: class and activity, plus each free share's
/// bits — or 0 with its unclamped flag set when the class's g = G demand
/// fits it (see score_rows).
using RowKey = std::array<std::uint64_t, 3>;

/// Flat open-addressing map from row key to the first row scored with that
/// key. Reset per score_rows call; the table only grows, so steady-state
/// probes allocate nothing.
class RowMemo {
 public:
  void reset(std::size_t rows) {
    const std::size_t size = std::bit_ceil(2 * rows + 1);  // load <= 1/2
    slots_.assign(size, Slot{});
    mask_ = size - 1;
  }
  /// The row stored under `key`; -1 if none, in which case the caller
  /// stores its row index through the returned reference.
  int& find(const RowKey& key) {
    std::uint64_t h = key[0] * 0x9E3779B97F4A7C15ull;
    h = (h ^ key[1]) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ key[2]) * 0x94D049BB133111EBull;
    std::size_t at = static_cast<std::size_t>(h ^ (h >> 31)) & mask_;
    while (slots_[at].row >= 0 && slots_[at].key != key) at = (at + 1) & mask_;
    slots_[at].key = key;
    return slots_[at].row;
  }

 private:
  struct Slot {
    RowKey key{};
    int row = -1;
  };
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

/// Per-thread scratch: the batched scoring passes' per-quantum buffers
/// (index g, entry 0 unused, reused across candidate servers), the per-
/// class needs of the current probe, and the row memo (see score_rows).
struct Scratch {
  std::vector<ArrivalRate> arr, mu_p, mu_n;
  std::vector<Share> phi_p, phi_n;
  std::vector<Time> delay;
  RowMemo memo;
  std::vector<ClassNeeds> needs;
  std::vector<std::uint8_t> needs_ready;
  void resize(std::size_t width) {
    arr.resize(width);
    phi_p.resize(width);
    phi_n.resize(width);
    mu_p.resize(width);
    mu_n.resize(width);
    delay.resize(width);
  }
  void reset_needs(std::size_t num_classes) {
    needs.resize(num_classes);
    needs_ready.assign(num_classes, 0);
  }
  /// Server j's class needs, computed once per probe and class.
  const ClassNeeds& needs_of(const Probe& p, ServerId j) {
    const std::size_t cls = p.cloud.server(j).server_class.index();
    ClassNeeds& n = needs[cls];
    if (needs_ready[cls] != 0) return n;
    needs_ready[cls] = 1;
    const ServerClass& sc = p.cloud.server_classes()[cls];
    const ArrivalRate lambda{p.c.lambda_pred};
    const ArrivalRate headroom{p.opts.stability_headroom};
    n.floor1_p = one_quantum_floor(lambda, p.G, WorkRate{sc.cap_p},
                                   Work{p.c.alpha_p}, p.opts);
    n.floor1_n = one_quantum_floor(lambda, p.G, WorkRate{sc.cap_n},
                                   Work{p.c.alpha_n}, p.opts);
    n.need_p = std::max(
        queueing::gps_min_share(lambda, WorkRate{sc.cap_p}, Work{p.c.alpha_p},
                                headroom),
        preferred_share(lambda, 1.0, WorkRate{sc.cap_p}, Work{p.c.alpha_p},
                        p.zc, p.sizing.slack_work_p, p.opts));
    n.need_n = std::max(
        queueing::gps_min_share(lambda, WorkRate{sc.cap_n}, Work{p.c.alpha_n},
                                headroom),
        preferred_share(lambda, 1.0, WorkRate{sc.cap_n}, Work{p.c.alpha_n},
                        p.zc, p.sizing.slack_work_n, p.opts));
    return n;
  }
};

/// The one-quantum screen: server j can host a slice of the client only if
/// a one-quantum slice's stability floor (eq. 7) fits its free share on
/// both resources. This is size_share_grid's own g = 1 test, so a server
/// that fails it has a score row infeasible past g = 0 — a row
/// dp_distribute passes through unchanged and build_plan skips — and
/// dropping it cannot change the plan.
template <class State>
bool fits_one_quantum(const State& state, ServerId j, const Probe& p,
                      Scratch& scratch) {
  const ClassNeeds& n = scratch.needs_of(p, j);
  return floor_fits(n.floor1_p, state.free_phi_p(j)) &&
         floor_fits(n.floor1_n, state.free_phi_n(j));
}

/// Fills the (server, quanta) score table for `cands`. Three passes per
/// server: size the shares (stopping at the first infeasible g — larger g
/// only needs more capacity), then the batched service-rate and two-stage
/// delay kernels over the feasible prefix, then the score combination.
/// The arithmetic is operation-for-operation the scalar
/// gps_service_rate / mm1_response_time form, so batching never changes a
/// score bit.
template <class State>
void score_rows(const State& state, const Probe& p,
                const std::vector<ServerId>& cands,
                std::vector<std::vector<SliceOption>>& options,
                std::vector<std::vector<double>>& scores, Scratch& scratch) {
  const Client& c = p.c;
  const int G = p.G;
  const std::size_t width = static_cast<std::size_t>(G) + 1;
  // Callers hand in long-lived buffers; resize + per-row assign below
  // reuses row capacity instead of reallocating every call.
  options.resize(cands.size());
  scores.resize(cands.size());
  scratch.resize(width);
  scratch.memo.reset(cands.size());

  for (std::size_t idx = 0; idx < cands.size(); ++idx) {
    const ServerId j = cands[idx];
    const ServerClass& sc = p.cloud.server_class_of(j);
    const double free_p = state.free_phi_p(j);
    const double free_n = state.free_phi_n(j);
    const bool was_active = state.active(j);

    // Row reuse: a row reads its server only through the class, the
    // activity and the two free shares. Both the stability floor and the
    // preferred size grow with g, so when a resource's g = G demand fits
    // its free share, no share of that resource on the row touches the
    // clamp and the free share drops out. Keyed that way, equal keys
    // score bitwise-equal rows; copying one is exact.
    const ClassNeeds& needs = scratch.needs_of(p, j);
    const bool unclamped_p = needs.need_p.value() <= free_p;
    const bool unclamped_n = needs.need_n.value() <= free_n;
    const auto cls =
        static_cast<std::uint64_t>(p.cloud.server(j).server_class.index());
    const RowKey key{
        (cls << 3) | (was_active ? 4u : 0u) | (unclamped_p ? 2u : 0u) |
            (unclamped_n ? 1u : 0u),
        unclamped_p ? 0 : std::bit_cast<std::uint64_t>(free_p),
        unclamped_n ? 0 : std::bit_cast<std::uint64_t>(free_n)};
    int& memo = scratch.memo.find(key);
    if (memo >= 0) {
      const auto src = static_cast<std::size_t>(memo);
      options[idx] = options[src];
      scores[idx] = scores[src];
      continue;
    }
    memo = static_cast<int>(idx);

    options[idx].assign(width, SliceOption{});
    scores[idx].assign(width, opt::kDpInfeasible);
    scores[idx][0] = 0.0;
    options[idx][0].score = 0.0;

    // Batched share sizing over the whole psi grid (SIMD lanes; bitwise
    // the historical per-g size_share loop — see size_share_grid). The
    // feasible prefix is the min over the two resources, exactly where
    // the scalar loop's first-infeasible break landed; it is never empty,
    // since every candidate passed the one-quantum screen.
    const int gmax = std::min(
        size_share_grid(ArrivalRate{c.lambda_pred}, G, WorkRate{sc.cap_p},
                        Work{c.alpha_p}, p.zc, p.sizing.slack_work_p, p.opts,
                        free_p, scratch.arr.data(), scratch.phi_p.data()),
        size_share_grid(ArrivalRate{c.lambda_pred}, G, WorkRate{sc.cap_n},
                        Work{c.alpha_n}, p.zc, p.sizing.slack_work_n, p.opts,
                        free_n, scratch.arr.data(), scratch.phi_n.data()));

    const auto n = static_cast<std::size_t>(gmax);
    queueing::gps_service_rates(scratch.phi_p.data() + 1, WorkRate{sc.cap_p},
                                Work{c.alpha_p}, scratch.mu_p.data() + 1, n);
    queueing::gps_service_rates(scratch.phi_n.data() + 1, WorkRate{sc.cap_n},
                                Work{c.alpha_n}, scratch.mu_n.data() + 1, n);
    queueing::two_stage_delays(scratch.arr.data() + 1, scratch.mu_p.data() + 1,
                               scratch.mu_n.data() + 1,
                               scratch.delay.data() + 1, n);

    for (int g = 1; g <= gmax; ++g) {
      const std::size_t gg = static_cast<std::size_t>(g);
      const double psi = static_cast<double>(g) / static_cast<double>(G);
      double score =
          -c.lambda_agreed * p.slope * psi * scratch.delay[gg].value();
      score -= sc.cost_per_util * psi * c.lambda_pred * c.alpha_p / sc.cap_p;
      if (!was_active) score -= sc.cost_fixed;
      options[idx][gg] = SliceOption{scratch.phi_p[gg].value(),
                                     scratch.phi_n[gg].value(), score};
      scores[idx][gg] = score;
    }
  }
}

InsertionPlan build_plan(const Client& c, const Cloud& cloud, ClientId i,
                         ClusterId k, int G,
                         const std::vector<ServerId>& cands,
                         const std::vector<std::vector<SliceOption>>& options,
                         const opt::DpResult& dp) {
  InsertionPlan plan;
  plan.cluster = k;
  // Constant part of the linearized revenue (psi sums to one).
  plan.score = c.lambda_agreed * cloud.utility_of(i).max_value() + dp.score;
  std::size_t used = 0;
  for (int g : dp.quanta) used += g > 0 ? 1 : 0;
  plan.placements.reserve(used);
  for (std::size_t idx = 0; idx < cands.size(); ++idx) {
    const int g = dp.quanta[idx];
    if (g == 0) continue;
    const SliceOption& option = options[idx][static_cast<std::size_t>(g)];
    Placement p;
    p.server = cands[idx];
    p.psi = static_cast<double>(g) / static_cast<double>(G);
    p.phi_p = option.phi_p;
    p.phi_n = option.phi_n;
    plan.placements.push_back(p);
  }
  CHECK(!plan.placements.empty());
  return plan;
}

template <class State>
std::optional<InsertionPlan> assign_distribute_impl(
    const State& state, ClientId i, ClusterId k, const AllocatorOptions& opts,
    const InsertionConstraints& constraints, InsertionStats* stats) {
  const Cloud& cloud = state.cloud();
  const Client& c = cloud.client(i);
  const auto& fn = cloud.utility_of(i);
  const int G = opts.psi_grid;
  CHECK(G >= 1);

  // Linearization anchors: price level, slope, and the share-sizing policy
  // (delay target vs cloud-wide capacity tightness).
  const Probe p{cloud, c, fn.slope(0.0), Time{fn.zero_crossing()},
                ShareSizing::from(cloud), opts, G};
  thread_local Scratch scratch;
  scratch.reset_needs(cloud.server_classes().size());

  // Candidate servers in cluster order — the row order of the DP: in the
  // cluster, not excluded, active when required, enough free disk (eq. 8),
  // and room for one quantum. All scratch here is thread_local: the
  // allocator probes tens of thousands of insertions per run and these
  // buffers dominated the allocator's heap traffic. Each call fully
  // (re)initializes what it reads, so reuse is invisible to results.
  const auto& cluster_servers = cloud.cluster(k).servers;
  thread_local std::vector<ServerId> cands;
  cands.clear();
  cands.reserve(cluster_servers.size());
  // The view batches the disk test over the whole cluster in one sweep
  // (SIMD, see ResidualView::screen_free_disk): the same comparison, so
  // the candidate list cannot differ from the scalar test's.
  thread_local std::vector<std::uint8_t> disk_ok;
  bool screened = false;
  if constexpr (std::is_same_v<State, ResidualView>)
    screened = state.screen_free_disk(k, c.disk, kEps, disk_ok);
  for (std::size_t idx = 0; idx < cluster_servers.size(); ++idx) {
    const ServerId j = cluster_servers[idx];
    if (screened ? disk_ok[idx] == 0 : state.free_disk(j) + kEps < c.disk)
      continue;
    if (j == constraints.exclude) continue;
    if (!constraints.allow_inactive && !state.active(j)) continue;
    if (!fits_one_quantum(state, j, p, scratch)) continue;
    cands.push_back(j);
  }
  if (cands.empty()) return std::nullopt;
  if (stats != nullptr) ++stats->full_solves;

  thread_local std::vector<std::vector<SliceOption>> options;
  thread_local std::vector<std::vector<double>> scores;
  score_rows(state, p, cands, options, scores, scratch);
  const auto dp = opt::dp_distribute(scores, G);
  if (!dp) return std::nullopt;
  return build_plan(c, cloud, i, k, G, cands, options, *dp);
}

template <class State>
std::optional<InsertionPlan> best_insertion_impl(
    const State& state, ClientId i, const AllocatorOptions& opts,
    const InsertionConstraints& constraints, InsertionStats* stats) {
  std::optional<InsertionPlan> best;
  const int num_clusters = state.cloud().num_clusters();
  const int fanout = opts.cluster_fanout;
  if (fanout > 0 && fanout < num_clusters) {
    // Deterministic probe window (see AllocatorOptions::cluster_fanout): a
    // fixed multiplicative hash of the client id picks the window start,
    // so the probed set depends only on (client, cluster count) — never
    // on allocation state, threads or shards — and clients spread evenly
    // over the clusters.
    const auto kk = static_cast<std::uint64_t>(num_clusters);
    const std::uint64_t start =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i.value())) *
         2654435761ull) %
        kk;
    for (int t = 0; t < fanout; ++t) {
      const ClusterId k{static_cast<int>(
          (start + static_cast<std::uint64_t>(t)) % kk)};
      auto plan =
          assign_distribute_impl(state, i, k, opts, constraints, stats);
      if (plan && (!best || plan->score > best->score)) best = std::move(plan);
    }
    return best;
  }
  for (ClusterId k : state.cloud().cluster_ids()) {
    auto plan = assign_distribute_impl(state, i, k, opts, constraints, stats);
    if (plan && (!best || plan->score > best->score)) best = std::move(plan);
  }
  return best;
}

}  // namespace

std::optional<InsertionPlan> assign_distribute(
    const Allocation& alloc, ClientId i, ClusterId k,
    const AllocatorOptions& opts, const InsertionConstraints& constraints,
    InsertionStats* stats) {
  return assign_distribute_impl(alloc, i, k, opts, constraints, stats);
}

std::optional<InsertionPlan> assign_distribute(
    const ResidualView& view, ClientId i, ClusterId k,
    const AllocatorOptions& opts, const InsertionConstraints& constraints,
    InsertionStats* stats) {
  return assign_distribute_impl(view, i, k, opts, constraints, stats);
}

std::optional<InsertionPlan> best_insertion(
    const Allocation& alloc, ClientId i, const AllocatorOptions& opts,
    const InsertionConstraints& constraints, InsertionStats* stats) {
  return best_insertion_impl(alloc, i, opts, constraints, stats);
}

std::optional<InsertionPlan> best_insertion(
    const ResidualView& view, ClientId i, const AllocatorOptions& opts,
    const InsertionConstraints& constraints, InsertionStats* stats) {
  return best_insertion_impl(view, i, opts, constraints, stats);
}

}  // namespace cloudalloc::alloc
