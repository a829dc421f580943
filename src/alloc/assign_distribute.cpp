#include "alloc/assign_distribute.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "alloc/share_policy.h"
#include "common/check.h"
#include "common/mathutil.h"
#include "model/residual.h"
#include "opt/dp.h"
#include "queueing/batch.h"
#include "queueing/gps.h"
#include "queueing/mm1.h"

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

/// The candidate filter: in-cluster, not excluded, enough free disk,
/// active when required (eq. 8), and room for one quantum. Applied
/// identically when building the full list and when walking the candidate
/// index, so the top-K subset is always a subsequence of the full list.
template <class State>
bool candidate_ok(const State& state, ServerId j, const Probe& p,
                  const InsertionConstraints& constraints, Scratch& scratch) {
  if (j == constraints.exclude) return false;
  if (!constraints.allow_inactive && !state.active(j)) return false;
  if (state.free_disk(j) + kEps < p.c.disk) return false;
  return fits_one_quantum(state, j, p, scratch);
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

/// Exactness certificate for a top-K solve. Every score term of an
/// excluded server j is non-positive and its delay at any quantum count is
/// bounded below by the delay of the full free share at the one-quantum
/// arrival rate, so f_j(g) <= g * u_j with
///
///   u_j = -(lambda_a * slope * dmin_j + P1_j * lambda * alpha_p / Cp_j) / G.
///
/// A split handing h >= 1 quanta to excluded servers therefore scores at
/// most h * max_j(u_j) + totals[G - h]. When every such bound sits
/// STRICTLY below the pruned optimum (with a relative margin), no
/// excluded server can participate in — or tie — any optimal split, and
/// the exact DP over all candidates returns the identical placements: the
/// excluded rows' only contribution is the exact +0.0 of zero quanta, so
/// every surviving cell value and every tie-break the traceback sees is
/// unchanged. Every candidate passed the one-quantum screen, so the bound
/// scans no row that is infeasible past g = 0 (the screen is the grid's
/// own g = 1 test; this function no longer repeats it with lambda / G,
/// which rounds differently from the grid's (1 / G) * lambda).
///
/// Twin redundancy: the strict bound can never discharge an excluded
/// server whose score row bitwise-equals an included one (it ties by
/// construction). But score rows are pure functions of the exact key
/// (class, active, bits(free_phi_p), bits(free_phi_n)), and the grouped
/// DP's strictly-greater update resolves every tie toward the
/// latest-scanned row — so within a group of twin rows the exact
/// traceback only ever places quanta on the highest-id min(m, G) members
/// (each used row takes >= 1 of the G quanta). An excluded twin is
/// therefore redundant — same cell values, untouched by the traceback —
/// whenever (a) the included twins of its group number at least
/// min(m, G) and (b) every included twin has a higher id, i.e. the group
/// was cut by the id-descending prefix of the candidate index. Such
/// twins are skipped by the bound scan instead of failing it.
template <class State>
bool certified(const State& state, const Probe& p,
               const std::vector<ServerId>& cands,
               const std::vector<ServerId>& pruned,
               const opt::DpResult& dp) {
  const Cloud& cloud = p.cloud;
  const Client& c = p.c;
  const Time zc = p.zc;
  const AllocatorOptions& opts = p.opts;
  const int G = p.G;
  // The bound needs non-negative revenue/slope (guaranteed by the utility
  // interface); bail to the exact scan rather than trust it otherwise.
  if (c.lambda_agreed < 0.0 || p.slope < 0.0) return false;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Policy delay floor, independent of the server and of g: a slice's
  // share never exceeds max(preferred, floor) whatever the free capacity,
  // so its per-stage service slack (mu - lambda) never exceeds
  // max(slack_max / alpha, stability_headroom) — the preferred share's
  // slack is min(psi * slack_work, alpha / (theta * zc)) and the floor
  // pins the slack to exactly the headroom. The free-capacity bound below
  // can still be tighter on nearly-full servers; each server takes the
  // larger of the two.
  const auto policy_dmin = [&](Work alpha, WorkRate slack_work) {
    WorkRate slack_max = slack_work;
    if (std::isfinite(zc.value()) && zc.value() > 0.0)
      slack_max = std::min(slack_max,
                           alpha / (opts.delay_target_fraction * zc));
    return 1.0 / std::max(slack_max / alpha,
                          ArrivalRate{opts.stability_headroom});
  };
  const Time dmin_policy =
      policy_dmin(Work{c.alpha_p}, p.sizing.slack_work_p) +
      policy_dmin(Work{c.alpha_n}, p.sizing.slack_work_n);

  // Group the candidate rows by their exact row key (see score_rows: a
  // row reads the server only through class, activity, and the two free
  // shares). Bitwise-equal keys => bitwise-equal rows => twins. The
  // groups live in a reused flat buffer scanned linearly: this runs once
  // per pruned attempt on a few dozen rows, where a node-based map's
  // allocations would dominate the whole certification.
  using TwinKey = std::array<std::uint64_t, 3>;
  struct TwinGroup {
    TwinKey key;
    int members = 0;   ///< rows with this key among cands
    int included = 0;  ///< of those, rows in the pruned set
    ServerId min_included{std::numeric_limits<int>::max()};
  };
  const auto key_of = [&](ServerId j) {
    const auto cls =
        static_cast<std::uint64_t>(cloud.server(j).server_class.value());
    return TwinKey{(cls << 1) | (state.active(j) ? 1u : 0u),
                   std::bit_cast<std::uint64_t>(state.free_phi_p(j)),
                   std::bit_cast<std::uint64_t>(state.free_phi_n(j))};
  };
  thread_local std::vector<TwinGroup> twins;
  twins.clear();
  const auto group_of = [&](const TwinKey& key) -> TwinGroup& {
    for (TwinGroup& g : twins)
      if (g.key == key) return g;
    twins.push_back(TwinGroup{key});
    return twins.back();
  };
  {
    std::size_t pi = 0;
    for (ServerId j : cands) {
      const bool included = pi < pruned.size() && pruned[pi] == j;
      if (included) ++pi;
      TwinGroup& g = group_of(key_of(j));
      ++g.members;
      if (included) {
        ++g.included;
        g.min_included = std::min(g.min_included, j);
      }
    }
  }

  const ArrivalRate arr1 = ArrivalRate{c.lambda_pred} / static_cast<double>(G);
  double ubest = 0.0;
  bool any_excluded_feasible = false;
  std::size_t pi = 0;  // pruned is a subsequence of cands
  for (ServerId j : cands) {
    if (pi < pruned.size() && pruned[pi] == j) {
      ++pi;
      continue;
    }
    const TwinGroup& tg = group_of(key_of(j));
    if (tg.included >= std::min(tg.members, G) && j < tg.min_included)
      continue;  // redundant twin — see the comment above
    const ServerClass& sc = cloud.server_class_of(j);
    const double free_p = state.free_phi_p(j);
    const double free_n = state.free_phi_n(j);
    const ArrivalRate mu_p_max = queueing::gps_service_rate(
        Share{free_p}, WorkRate{sc.cap_p}, Work{c.alpha_p});
    const ArrivalRate mu_n_max = queueing::gps_service_rate(
        Share{free_n}, WorkRate{sc.cap_n}, Work{c.alpha_n});
    Time dmin = queueing::mm1_response_time_or_inf(arr1, mu_p_max) +
                queueing::mm1_response_time_or_inf(arr1, mu_n_max);
    if (!(dmin.value() < kInf)) continue;
    dmin = std::max(dmin, dmin_policy);
    const double u =
        -(c.lambda_agreed * p.slope * dmin.value() +
          sc.cost_per_util * c.lambda_pred * c.alpha_p / sc.cap_p) /
        static_cast<double>(G);
    if (!any_excluded_feasible || u > ubest) {
      ubest = u;
      any_excluded_feasible = true;
    }
  }
  if (!any_excluded_feasible) return true;

  const double margin = 1e-9 * std::max(1.0, std::abs(dp.score));
  for (int h = 1; h <= G; ++h) {
    const double rest = dp.totals[static_cast<std::size_t>(G - h)];
    if (rest <= opt::kDpInfeasible) continue;  // no feasible completion
    if (static_cast<double>(h) * ubest + rest >= dp.score - margin)
      return false;
  }
  return true;
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

  // Candidate servers in cluster order — the row order of the exact DP.
  // All scratch here is thread_local: the allocator probes tens of
  // thousands of insertions per run and these buffers dominated the
  // allocator's heap traffic. Each call fully (re)initializes what it
  // reads, so reuse is invisible to results.
  const auto& cluster_servers = cloud.cluster(k).servers;
  thread_local std::vector<ServerId> cands;
  cands.clear();
  cands.reserve(cluster_servers.size());
  bool screened = false;
  if constexpr (std::is_same_v<State, ResidualView>) {
    // Batched eq.-8 disk screen (SIMD, see ResidualView::screen_free_disk):
    // the free-disk comparison for the whole cluster in one sweep; the
    // remaining filter tests are branch-only. Same test, same order of
    // servers — the candidate list cannot differ from the scalar build.
    thread_local std::vector<std::uint8_t> disk_ok;
    if (state.screen_free_disk(k, c.disk, kEps, disk_ok)) {
      screened = true;
      for (std::size_t idx = 0; idx < cluster_servers.size(); ++idx) {
        const ServerId j = cluster_servers[idx];
        if (disk_ok[idx] == 0) continue;
        if (j == constraints.exclude) continue;
        if (!constraints.allow_inactive && !state.active(j)) continue;
        if (!fits_one_quantum(state, j, p, scratch)) continue;
        cands.push_back(j);
      }
    }
  }
  if (!screened) {
    for (ServerId j : cluster_servers)
      if (candidate_ok(state, j, p, constraints, scratch)) cands.push_back(j);
  }
  if (cands.empty()) return std::nullopt;

  thread_local std::vector<std::vector<SliceOption>> options;
  thread_local std::vector<std::vector<double>> scores;

  // Per-cluster attempt throttle for the pruned path: a failed
  // certification means the pruned DP was wasted work on top of the full
  // scan, and failure is sticky (it tracks how loaded and residual-diverse
  // the cluster currently is, which single moves barely change). After a
  // fallback the next 2^streak attempts on that cluster go straight to
  // the exact scan; a certified attempt resets the streak. This state is
  // invisible in results — the certified pruned solve and the full scan
  // return identical plans by construction — it only trades probe cost.
  thread_local std::vector<int> prune_skip, prune_streak;
  const int topk = opts.candidate_topk;
  if (topk > 0 && static_cast<int>(cands.size()) > topk) {
    const std::size_t kk = k.index();
    if (kk >= prune_skip.size()) {
      prune_skip.resize(kk + 1, 0);
      prune_streak.resize(kk + 1, 0);
    }
    if (opts.candidate_backoff && prune_skip[kk] > 0) {
      --prune_skip[kk];
      if (stats != nullptr) ++stats->full_solves;
    } else {
      // Top-K by the residual-capacity index, re-expressed in cluster
      // order so the pruned DP tie-breaks exactly like the full scan
      // would. A twin run (same class, activity, and bitwise free shares
      // — twins sort adjacently, highest id first) split by the K cut can
      // only be certified once it holds min(members, G) included twins,
      // so the cut self-extends past K until the run's included count
      // reaches G or the run ends: beyond G the DP can never place
      // another quantum on the group, and certified() discharges the
      // remaining (lower-id) twins as redundant.
      const auto twin_key = [&](ServerId a) {
        const auto cls =
            static_cast<std::uint64_t>(cloud.server(a).server_class.value());
        return std::array<std::uint64_t, 3>{
            (cls << 1) | (state.active(a) ? 1u : 0u),
            std::bit_cast<std::uint64_t>(state.free_phi_p(a)),
            std::bit_cast<std::uint64_t>(state.free_phi_n(a))};
      };
      thread_local std::vector<ServerId> chosen;
      chosen.clear();
      std::array<std::uint64_t, 3> run_key{};
      int run_included = 0;
      // Grow the ordered prefix on demand: the walk almost always stops
      // within a small multiple of K, so the bucketed index (see
      // ResidualView::ordered_prefix) only materializes and sorts the top
      // of the order instead of re-sorting the whole cluster. Prefixes are
      // exact, so the walk visits the same servers in the same order as
      // the historical full-order scan.
      std::size_t want = static_cast<std::size_t>(topk) * 2 + 8;
      const std::vector<ServerId>* prefix = &state.ordered_prefix(k, want);
      for (std::size_t pi = 0;; ++pi) {
        if (pi >= prefix->size()) {
          if (prefix->size() >= cluster_servers.size()) break;
          want = std::max(want * 2, prefix->size() + 1);
          prefix = &state.ordered_prefix(k, want);
          if (pi >= prefix->size()) break;
        }
        const ServerId j = (*prefix)[pi];
        if (!candidate_ok(state, j, p, constraints, scratch)) continue;
        const auto key = twin_key(j);
        const bool same_run = !chosen.empty() && key == run_key;
        if (static_cast<int>(chosen.size()) >= topk &&
            (!same_run || run_included >= G))
          break;
        if (!same_run) {
          run_key = key;
          run_included = 0;
        }
        ++run_included;
        chosen.push_back(j);
      }
      thread_local std::vector<ServerId> pruned;
      pruned.clear();
      for (ServerId j : cands)
        if (std::find(chosen.begin(), chosen.end(), j) != chosen.end())
          pruned.push_back(j);
      if (stats != nullptr) stats->last_pruned_set = pruned;

      score_rows(state, p, pruned, options, scores, scratch);
      const auto dp = opt::dp_distribute(scores, G);
      if (dp && certified(state, p, cands, pruned, *dp)) {
        if (stats != nullptr) ++stats->pruned_solves;
        prune_streak[kk] /= 2;  // decay, not reset: mid-load clusters
                                // oscillate near the certification edge
        return build_plan(c, cloud, i, k, G, pruned, options, *dp);
      }
      // Uncertified (or the pruned set alone cannot host the client): pay
      // for the exact scan. The pruned attempt is wasted work, so K trades
      // prune rate against fallback cost.
      if (stats != nullptr) ++stats->exact_fallbacks;
      prune_streak[kk] = std::min(prune_streak[kk] + 1, 14);
      prune_skip[kk] = 1 << prune_streak[kk];
    }
  } else if (stats != nullptr) {
    ++stats->full_solves;
  }

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
