#include "alloc/assign_distribute.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "alloc/share_policy.h"
#include "common/check.h"
#include "model/residual.h"
#include "opt/dp.h"
#include "queueing/batch.h"
#include "queueing/gps.h"

namespace cloudalloc::alloc {
namespace {

using model::Client;
using model::ClientId;
using model::Cloud;
using model::ClusterId;
using model::Placement;
using model::ResidualView;
using model::ServerClass;
using units::ArrivalRate;
using units::Share;
using units::Time;
using units::Work;
using units::WorkRate;

/// Shares of one (row, quantum-count) slice.
struct SliceShares {
  double phi_p = 0.0;
  double phi_n = 0.0;
};

/// Client i's share demand at g = G on one server class, per resource.
struct ClassNeeds {
  double need_p = 0.0;
  double need_n = 0.0;
};

/// A score row's exact key: class and activity, plus each free share's
/// bits — or 0 with its unclamped flag set when the class's g = G demand
/// fits it (see score_rows).
using RowKey = std::array<std::uint64_t, 3>;

/// Flat open-addressing map from row key to the table row scored for that
/// key. reset() starts a new generation instead of clearing the slots, and
/// the table doubles, rehashing the live generation, before its load
/// passes one half. So a reset costs nothing, any number of keys fit, and
/// steady-state probes allocate nothing.
class RowMemo {
 public:
  void reset() {
    count_ = 0;
    if (++gen_ != 0) return;
    // The stamp wrapped: age every slot out by hand once.
    for (Slot& slot : slots_) slot.gen = 0;
    gen_ = 1;
  }
  /// The row stored under `key`; -1 if none, in which case the caller
  /// stores its row index through the returned reference.
  int& find(const RowKey& key) {
    if (2 * (count_ + 1) > slots_.size()) grow();
    Slot& slot = slot_of(key);
    if (slot.gen != gen_) {
      slot = Slot{key, -1, gen_};
      ++count_;
    }
    return slot.row;
  }

 private:
  struct Slot {
    RowKey key{};
    int row = -1;
    std::uint32_t gen = 0;  ///< live when equal to gen_
  };
  static constexpr std::size_t kInitialSlots = 128;

  /// The live slot holding `key`, or the free slot where it belongs.
  Slot& slot_of(const RowKey& key) {
    std::uint64_t h = key[0] * 0x9E3779B97F4A7C15ull;
    h = (h ^ key[1]) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ key[2]) * 0x94D049BB133111EBull;
    std::size_t at = static_cast<std::size_t>(h ^ (h >> 31)) & mask_;
    while (slots_[at].gen == gen_ && slots_[at].key != key)
      at = (at + 1) & mask_;
    return slots_[at];
  }
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max(kInitialSlots, 2 * old.size()), Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old)
      if (slot.gen == gen_) slot_of(slot.key) = slot;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;  ///< live slots
  std::uint32_t gen_ = 1;
};

/// Assign_Distribute's per-client context. begin() computes, once per
/// client, everything a probe reads that does not depend on the cluster:
/// the linearization anchors, the share-sizing policy, and each server
/// class's one-quantum floors and g = G demands. probe() then runs
/// Assign_Distribute(i, k) for one cluster, and may run for any number of
/// clusters. A score row is a pure function of its key and the client, so
/// the row store — memo, score table and slice shares — also lives from
/// begin() to the next begin(), and a row scored on one cluster serves
/// every later candidate with the same key, on any cluster of the window.
class ClientContext {
 public:
  void begin(const Cloud& cloud, ClientId i, const AllocatorOptions& opts);
  std::optional<InsertionPlan> probe(const ResidualView& view, ClusterId k,
                                     const InsertionConstraints& constraints,
                                     InsertionStats* stats);

 private:
  void score_rows(std::size_t n);
  InsertionPlan build_plan(ClusterId k, std::size_t n,
                           const opt::DpResult& dp) const;

  // Probe constants, set by begin().
  const Cloud* cloud_ = nullptr;
  const Client* c_ = nullptr;
  ClientId i_;
  const AllocatorOptions* opts_ = nullptr;
  int G_ = 0;
  double slope_ = 0.0;  ///< linearized utility slope
  Time zc_;             ///< utility zero-crossing
  ShareSizing sizing_;
  std::vector<ResidualView::Floors> floors_;  ///< per server class
  std::vector<ClassNeeds> needs_;             ///< per server class
  // Row store: each distinct row once, kept across the client's probes.
  RowMemo memo_;
  opt::DpTable scores_;
  std::vector<SliceShares> shares_;  ///< row r, cell g at r * (G + 1) + g
  // One probe's candidates (the first n entries) and their table rows.
  std::vector<ResidualView::Candidate> cands_;
  std::vector<int> row_of_;
  // The batched scoring passes' per-quantum buffers (index g, entry 0
  // unused, reused across rows).
  std::vector<ArrivalRate> arr_, mu_p_, mu_n_;
  std::vector<Share> phi_p_, phi_n_;
  std::vector<Time> delay_;
};

void ClientContext::begin(const Cloud& cloud, ClientId i,
                          const AllocatorOptions& opts) {
  CHECK(opts.psi_grid >= 1);
  const Client& c = cloud.client(i);
  const auto& fn = cloud.utility_of(i);
  cloud_ = &cloud;
  c_ = &c;
  i_ = i;
  opts_ = &opts;
  G_ = opts.psi_grid;
  // Linearization anchors: price level, slope, and the share-sizing policy
  // (delay target vs cloud-wide capacity tightness).
  slope_ = fn.slope(0.0);
  zc_ = Time{fn.zero_crossing()};
  sizing_ = ShareSizing::from(cloud);

  const ArrivalRate lambda{c.lambda_pred};
  const ArrivalRate headroom{opts.stability_headroom};
  const std::size_t num_classes = cloud.server_classes().size();
  floors_.resize(num_classes);
  needs_.resize(num_classes);
  for (std::size_t cls = 0; cls < num_classes; ++cls) {
    const ServerClass& sc = cloud.server_classes()[cls];
    floors_[cls].p = one_quantum_floor(lambda, G_, WorkRate{sc.cap_p},
                                       Work{c.alpha_p}, opts);
    floors_[cls].n = one_quantum_floor(lambda, G_, WorkRate{sc.cap_n},
                                       Work{c.alpha_n}, opts);
    needs_[cls].need_p =
        std::max(queueing::gps_min_share(lambda, WorkRate{sc.cap_p},
                                         Work{c.alpha_p}, headroom),
                 preferred_share(lambda, 1.0, WorkRate{sc.cap_p},
                                 Work{c.alpha_p}, zc_, sizing_.slack_work_p))
            .value();
    needs_[cls].need_n =
        std::max(queueing::gps_min_share(lambda, WorkRate{sc.cap_n},
                                         Work{c.alpha_n}, headroom),
                 preferred_share(lambda, 1.0, WorkRate{sc.cap_n},
                                 Work{c.alpha_n}, zc_, sizing_.slack_work_n))
            .value();
  }

  memo_.reset();
  scores_.reset(G_);
  const std::size_t width = static_cast<std::size_t>(G_) + 1;
  arr_.resize(width);
  phi_p_.resize(width);
  phi_n_.resize(width);
  mu_p_.resize(width);
  mu_n_.resize(width);
  delay_.resize(width);
}

/// Scores the rows of the first n candidates into scores_ (and their slice
/// shares into shares_), each distinct row once per client, and records
/// each candidate's row in row_of_. Three passes per row: size the shares
/// (stopping at the first infeasible g — larger g only needs more
/// capacity), then the batched service-rate and two-stage delay kernels
/// over the feasible prefix, then the score combination. The arithmetic is
/// operation-for-operation the scalar gps_service_rate / mm1_response_time
/// form, so batching never changes a score bit.
void ClientContext::score_rows(std::size_t n) {
  const Client& c = *c_;
  const int G = G_;
  const std::size_t width = static_cast<std::size_t>(G) + 1;
  row_of_.resize(n);

  for (std::size_t idx = 0; idx < n; ++idx) {
    const ResidualView::Candidate& cand = cands_[idx];
    const std::size_t cls = cand.server_class.index();
    const ServerClass& sc = cloud_->server_classes()[cls];
    const double free_p = cand.free_p;
    const double free_n = cand.free_n;

    // Row reuse: a row reads its server only through the class, the
    // activity and the two free shares. Both the stability floor and the
    // preferred size grow with g, so when a resource's g = G demand fits
    // its free share, no share of that resource on the row touches the
    // clamp and the free share drops out. Keyed that way, equal keys
    // score bitwise-equal rows for the same client, so candidates with
    // equal keys share one, whichever cluster scored it.
    const bool unclamped_p = needs_[cls].need_p <= free_p;
    const bool unclamped_n = needs_[cls].need_n <= free_n;
    const RowKey key{
        (static_cast<std::uint64_t>(cls) << 3) | (cand.active ? 4u : 0u) |
            (unclamped_p ? 2u : 0u) | (unclamped_n ? 1u : 0u),
        unclamped_p ? 0 : std::bit_cast<std::uint64_t>(free_p),
        unclamped_n ? 0 : std::bit_cast<std::uint64_t>(free_n)};
    int& memo = memo_.find(key);
    if (memo >= 0) {
      row_of_[idx] = memo;
      continue;
    }
    const int r = scores_.add_row();
    memo = r;
    row_of_[idx] = r;
    const std::size_t base = static_cast<std::size_t>(r) * width;
    if (shares_.size() < base + width) shares_.resize(base + width);
    SliceShares* const shares = shares_.data() + base;

    // Batched share sizing over the whole psi grid (SIMD lanes; bitwise
    // the historical per-g size_share loop — see size_share_grid). The
    // feasible prefix is the min over the two resources, exactly where
    // the scalar loop's first-infeasible break landed; it is never empty,
    // since every candidate passed the one-quantum screen.
    const int gmax = std::min(
        size_share_grid(ArrivalRate{c.lambda_pred}, G, WorkRate{sc.cap_p},
                        Work{c.alpha_p}, zc_, sizing_.slack_work_p, *opts_,
                        free_p, arr_.data(), phi_p_.data()),
        size_share_grid(ArrivalRate{c.lambda_pred}, G, WorkRate{sc.cap_n},
                        Work{c.alpha_n}, zc_, sizing_.slack_work_n, *opts_,
                        free_n, arr_.data(), phi_n_.data()));

    const auto cells = static_cast<std::size_t>(gmax);
    queueing::gps_service_rates(phi_p_.data() + 1, WorkRate{sc.cap_p},
                                Work{c.alpha_p}, mu_p_.data() + 1, cells);
    queueing::gps_service_rates(phi_n_.data() + 1, WorkRate{sc.cap_n},
                                Work{c.alpha_n}, mu_n_.data() + 1, cells);
    queueing::two_stage_delays(arr_.data() + 1, mu_p_.data() + 1,
                               mu_n_.data() + 1, delay_.data() + 1, cells);

    for (int g = 1; g <= gmax; ++g) {
      const std::size_t gg = static_cast<std::size_t>(g);
      const double psi = static_cast<double>(g) / static_cast<double>(G);
      double score = -c.lambda_agreed * slope_ * psi * delay_[gg].value();
      score -= sc.cost_per_util * psi * c.lambda_pred * c.alpha_p / sc.cap_p;
      if (!cand.active) score -= sc.cost_fixed;
      shares[gg] = SliceShares{phi_p_[gg].value(), phi_n_[gg].value()};
      scores_.set(r, g, score);
    }
  }
}

InsertionPlan ClientContext::build_plan(ClusterId k, std::size_t n,
                                        const opt::DpResult& dp) const {
  const Client& c = *c_;
  InsertionPlan plan;
  plan.cluster = k;
  // Constant part of the linearized revenue (psi sums to one).
  plan.score = c.lambda_agreed * cloud_->utility_of(i_).max_value() + dp.score;
  std::size_t used = 0;
  for (int g : dp.quanta) used += g > 0 ? 1 : 0;
  plan.placements.reserve(used);
  const std::size_t width = static_cast<std::size_t>(G_) + 1;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const int g = dp.quanta[idx];
    if (g == 0) continue;
    const SliceShares& shares =
        shares_[static_cast<std::size_t>(row_of_[idx]) * width +
                static_cast<std::size_t>(g)];
    Placement p;
    p.server = cands_[idx].server;
    p.psi = static_cast<double>(g) / static_cast<double>(G_);
    p.phi_p = shares.phi_p;
    p.phi_n = shares.phi_n;
    plan.placements.push_back(p);
  }
  CHECK(!plan.placements.empty());
  return plan;
}

std::optional<InsertionPlan> ClientContext::probe(
    const ResidualView& view, ClusterId k,
    const InsertionConstraints& constraints, InsertionStats* stats) {
  // The candidates, in cluster order — the row order of the DP. The
  // screen's one-quantum test is size_share_grid's own g = 1 test
  // (one_quantum_floor, floor_fits), so a server it drops has a score row
  // infeasible past g = 0 — a row dp_distribute passes through unchanged
  // and build_plan skips — and dropping it cannot change the plan.
  const ResidualView::Screen screen{c_->disk, constraints.exclude,
                                    constraints.allow_inactive,
                                    floors_.data()};
  const std::size_t n = view.screen(k, screen, cands_);
  if (n == 0) return std::nullopt;
  if (stats != nullptr) ++stats->full_solves;
  score_rows(n);
  const auto dp = opt::dp_distribute(scores_, row_of_);
  if (!dp) return std::nullopt;
  return build_plan(k, n, *dp);
}

/// The one context per thread behind both entry points. The allocator
/// probes tens of thousands of insertions per run, and its buffers only
/// grow, so steady-state probes allocate only their plan. Each call
/// begin()s it first, so reuse is invisible to results.
ClientContext& thread_context() {
  thread_local ClientContext context;
  return context;
}

}  // namespace

std::optional<InsertionPlan> assign_distribute(
    const ResidualView& view, ClientId i, ClusterId k,
    const AllocatorOptions& opts, const InsertionConstraints& constraints,
    InsertionStats* stats) {
  ClientContext& context = thread_context();
  context.begin(view.cloud(), i, opts);
  return context.probe(view, k, constraints, stats);
}

std::optional<InsertionPlan> best_insertion(
    const ResidualView& view, ClientId i, const AllocatorOptions& opts,
    const InsertionConstraints& constraints, InsertionStats* stats) {
  ClientContext& context = thread_context();
  context.begin(view.cloud(), i, opts);
  std::optional<InsertionPlan> best;
  const int num_clusters = view.cloud().num_clusters();
  const ProbeWindow window =
      probe_window(i, num_clusters, opts.cluster_fanout);
  for (int t = 0; t < window.size; ++t) {
    auto plan = context.probe(
        view, ClusterId{(window.first + t) % num_clusters}, constraints,
        stats);
    if (plan && (!best || plan->score > best->score)) best = std::move(plan);
  }
  return best;
}

ProbeWindow probe_window(ClientId i, int num_clusters, int fanout) {
  if (fanout <= 0 || fanout >= num_clusters) return {0, num_clusters};
  const std::uint64_t start =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i.value())) *
       2654435761ull) %
      static_cast<std::uint64_t>(num_clusters);
  return {static_cast<int>(start), fanout};
}

}  // namespace cloudalloc::alloc
