#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>

#include "alloc/allocator.h"
#include "alloc/initial.h"
#include "common/prof.h"
#include "common/rng.h"
#include "dist/manager.h"
#include "dist/parallel_eval.h"
#include "dist/thread_pool.h"
#include "layers.h"
#include "model/evaluator.h"
#include "model/feasibility.h"
#include "serve/online.h"
#include "sim/replication.h"
#include "workload/churn.h"
#include "workload/scenario.h"

namespace allocbench {
namespace {

namespace workload = cloudalloc::workload;
namespace serve = cloudalloc::serve;
namespace sim = cloudalloc::sim;
namespace dist = cloudalloc::dist;
namespace prof = cloudalloc::prof;

// --- workload parameters ---------------------------------------------------

/// Set-up batches every workload runs before its operations (see
/// SetupTimer), and the least time one batch runs for.
constexpr int kSetupBatches = 3;
constexpr double kSetupBatchS = 0.25;
/// No run may outlast this, whatever --seconds says.
constexpr double kHardCapS = 150.0;

constexpr int kColdClients = 30000;
constexpr int kWarmClients = 10000;
constexpr int kWarmInitialClients = 9000;
/// warm_churn runs --seconds / kWarmNominalEpochS epochs, at least
/// kWarmMinEpochs: a count fixed by the arguments rather than by the
/// machine's speed, so a seed's failed epochs and other counts repeat
/// exactly. Profit is the mean carried profit over epochs 4-6.
constexpr double kWarmNominalEpochS = 1.6;
constexpr int kWarmMinEpochs = 6;
constexpr int kWarmStreamEpochs = 64;
constexpr int kSimClients = 200;
constexpr double kSimHorizon = 1000.0;
constexpr int kSimReplications = 4;
/// Isolated-GPS simulation must agree with the queueing model's mean
/// response times to within this relative error (mean over clients).
constexpr double kSimRelErrBound = 0.05;
/// A solve takes about 1.2 s (12 rounds), so a 20-second run times three
/// or four solves per solver-seed path. At twice the size a solve takes
/// about 4 s, a run timed one solve per path, and one slow solve set the
/// run's figure.
constexpr int kDistClients = 600;
constexpr int kDistClusters = 3;
constexpr int kDistServersPerCluster = 175;
/// Solver seeds per dist_solve run. The greedy start's client order can
/// move the distributed solve's time (by up to ±25% at twice this size),
/// so one path per run would make the run-to-run spread measure the seed;
/// each run cycles through this many and weighs them equally.
constexpr int kDistPaths = 4;

/// The scale knobs shared by cold_solve and warm_churn.
alloc::AllocatorOptions scale_options(int threads) {
  alloc::AllocatorOptions o;
  o.num_initial_solutions = 1;
  o.max_local_search_rounds = 1;
  o.num_shards = 8;
  o.cluster_fanout = 4;
  o.num_threads = threads;
  return o;
}

/// The manager's options on one of a run's solver-seed paths.
dist::DistributedOptions dist_options(std::uint64_t seed, int path) {
  alloc::AllocatorOptions o;
  o.num_initial_solutions = 1;
  o.seed = seed * kDistPaths + static_cast<std::uint64_t>(path);
  dist::DistributedOptions d(o);
  d.mode = dist::DistMode::kMessagePassing;
  return d;
}

serve::OnlineOptions online_options() {
  serve::OnlineOptions o;
  o.alloc = scale_options(1);
  o.alloc.migration_cost = 2.0;
  o.repair_rounds = 1;
  return o;
}

/// About 1% churn per epoch, with the generator's default symmetric demand
/// drift (rates × U[0.7, 1.4)).
workload::ChurnParams churn_params(int epochs) {
  workload::ChurnParams c;
  c.epochs = epochs;
  c.initial_clients = kWarmInitialClients;
  c.arrival_rate = 40.0;
  c.departure_probability = 0.004;
  c.demand_change_probability = 0.004;
  return c;
}

/// The fleet (server classes, servers, clusters) and the SLA price
/// catalogue (utility classes) of every workload are the scenario family's
/// draw at this seed; the run's seed draws the client population. The few
/// class-level draws dominate profit and solve cost, so a seed that redrew
/// them would make runs with different seeds measure different catalogues
/// rather than the code. At seed == kFleetSeed the cloud is exactly
/// make_scenario(params, seed).
constexpr std::uint64_t kFleetSeed = 11;

model::Cloud scenario(const workload::ScenarioParams& params,
                      std::uint64_t seed) {
  workload::ScenarioParams fleet_params = params;
  fleet_params.num_clients = 1;  // the generator draws clients last
  const model::Cloud fleet = workload::make_scenario(fleet_params, kFleetSeed);
  const model::Cloud population = workload::make_scenario(params, seed);
  return model::Cloud(fleet.server_classes(), fleet.servers(), fleet.clusters(),
                      fleet.utility_classes(), population.clients());
}

model::Cloud cold_cloud(std::uint64_t seed) {
  return scenario(workload::scaled_params(kColdClients), seed);
}

model::Cloud warm_universe(std::uint64_t seed) {
  return scenario(workload::scaled_params(kWarmClients), seed);
}

/// The stream seed is the universe seed plus one.
workload::ChurnStream warm_stream(const model::Cloud& universe,
                                  std::uint64_t seed, int epochs) {
  return workload::make_churn_stream(universe, churn_params(epochs), seed + 1);
}

/// sim_replay and dist_solve run one fixed instance each; their seed drives
/// the randomness of the run instead (the simulated request streams, and
/// the greedy start's client order), so a seed changes what the code does
/// without changing the size or difficulty of the instance.
model::Cloud sim_cloud() {
  workload::ScenarioParams params;
  params.num_clients = kSimClients;
  return workload::make_scenario(params, kFleetSeed);
}

model::Cloud dist_cloud() {
  workload::ScenarioParams params;
  params.num_clients = kDistClients;
  params.num_clusters = kDistClusters;
  params.servers_per_cluster = kDistServersPerCluster;
  return workload::make_scenario(params, kFleetSeed);
}

// --- helpers ---------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string show(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Audits an allocation with model::check_feasibility; a violation fails
/// the operation, it never aborts the run.
class Auditor {
 public:
  explicit Auditor(Result& result) : result_(result) {}

  bool feasible(const model::Allocation& a, const std::string& what) {
    const auto t0 = Clock::now();
    const std::vector<model::Violation> v = model::check_feasibility(a);
    ms_.push_back(1e3 * seconds_since(t0));
    return result_.expect(
        v.empty(), what + " is infeasible: " + std::to_string(v.size()) +
                       " violations, first: " +
                       (v.empty() ? "" : v.front().describe()));
  }

  void report() const {
    result_.set("model.feasibility_ms_p50", median(ms_), "ms");
  }

 private:
  Result& result_;
  std::vector<double> ms_;
};

/// Times set-ups for setup_s. A batch repeats the set-up until it has run
/// for kSetupBatchS (once, for a slower set-up) and records the batch's
/// time per set-up, so a cheap set-up is timed as the total of many calls
/// rather than sampled call by call; setup_s is the median over batches.
/// Where set-up is cheap next to an operation, a batch also runs before
/// every timed operation: the machine's speed drifts over seconds, and
/// batches spread over the run sample it over the same stretch of time as
/// the operations rather than the first second.
class SetupTimer {
 public:
  template <class Setup>
  void batch(Setup&& setup) {
    int n = 0;
    double elapsed = 0.0;
    const auto t0 = Clock::now();
    do {
      setup();
      ++n;
      elapsed = seconds_since(t0);
    } while (elapsed < kSetupBatchS);
    per_setup_s_.push_back(elapsed / n);
    setups_ += n;
  }

  /// The kSetupBatches batches that precede the operations.
  template <class Setup>
  void batches(Setup&& setup) {
    for (int b = 0; b < kSetupBatches; ++b) batch(setup);
  }

  double median_s() const { return median(per_setup_s_); }

  /// Sets setup_s and prints how it was taken.
  void report(Result& r) const {
    r.set("setup_s", median_s(), "s");
    std::cout << "setup_s is the median of " << per_setup_s_.size()
              << " batches' time per set-up, " << setups_
              << " set-ups in all; s per set-up:";
    for (double s : per_setup_s_) std::cout << " " << s;
    std::cout << "\n";
  }

 private:
  std::vector<double> per_setup_s_;
  int setups_ = 0;
};

/// Runs `op` (which returns its own measured seconds) once to warm up —
/// the first operation in a process pays for cold caches and heap growth,
/// which would otherwise dominate the run-to-run spread — and then until
/// `seconds` of wall time would be exceeded by one more call, but at least
/// `min_ops` times, calling `before` ahead of each timed call. The warm-up
/// is checked like any other operation but not timed. Returns the timed
/// durations.
template <class Op, class Before>
std::vector<double> repeat_for(double seconds, int min_ops, Op&& op,
                               Before&& before) {
  op();
  std::vector<double> durations;
  const auto t0 = Clock::now();
  for (;;) {
    before();
    durations.push_back(op());
    const double elapsed = seconds_since(t0);
    if (elapsed > kHardCapS) break;
    if (static_cast<int>(durations.size()) >= min_ops &&
        elapsed + durations.back() > seconds)
      break;
  }
  return durations;
}

std::vector<double> to_ms(std::vector<double> s) {
  for (double& v : s) v *= 1e3;
  return s;
}

/// Sets the end-to-end metrics and solve_s; `op_ms_p50` is the operation
/// time the workload reports (the median of `op_ms` unless it says
/// otherwise).
void set_end_to_end(Result& r, const SetupTimer& setup, double solve_s,
                    const std::vector<double>& op_ms, double op_ms_p50,
                    double profit) {
  const Tail tail = tail_of(op_ms);
  setup.report(r);
  r.set("solve_s", solve_s, "s");
  r.set("epoch_ms_p50", op_ms_p50, "ms");
  r.set("epoch_ms_tail", tail.value, "ms");
  r.set("profit", profit, "money/s");
  std::cout << "epoch_ms_tail is p" << tail.percentile << " of "
            << tail.samples << " operations\noperation ms:";
  for (double ms : op_ms) std::cout << " " << ms;
  std::cout << "\n";
}

/// Traced replay of ResourceAllocator(opts).run(cloud); `expected_profit`
/// is the untraced result the workload already saw, if any. An untraced
/// solve right before and right after the replay is the reference the
/// tracing overhead is taken against (the machine's speed drifts over
/// seconds, so a reference from earlier in the run would measure the
/// drift). Checks the replay is the same program, then probes the move
/// layer on its state. Returns the untraced solves' durations.
std::vector<double> trace_solve(const model::Cloud& cloud,
                                const alloc::AllocatorOptions& opts,
                                std::optional<double> expected_profit,
                                Tracer& tracer, Auditor& audit, Result& r) {
  std::vector<double> untraced_s, profits;
  const auto untraced = [&] {
    const auto t0 = Clock::now();
    const alloc::AllocatorResult res =
        alloc::ResourceAllocator(opts).run(cloud);
    untraced_s.push_back(seconds_since(t0));
    profits.push_back(res.report.final_profit);
  };
  untraced();
  const Replay replay = replay_solve(cloud, opts, tracer, r);
  untraced();
  if (expected_profit) profits.push_back(*expected_profit);
  bool ok = true;
  for (double p : profits)
    ok &= r.check(same_bits(p, profits.front()),
                  "untraced solves disagree: " + show(p) + " != " +
                      show(profits.front()));
  ok &= r.check(same_bits(replay.profit, profits.front()),
                "traced replay profit " + show(replay.profit) +
                    " != untraced profit " + show(profits.front()));
  ok &= r.check(replay.state->aggregates_consistent(),
                "replayed state fails aggregates_consistent()");
  ok &= audit.feasible(replay.state->ledger(), "traced replay");
  r.op(ok);
  const double reference_s = median(untraced_s);
  const double spans_s = tracer.children_total("solve");
  r.set("trace.overhead_s", replay.wall_s - reference_s, "s");
  r.set("trace.span_cover_frac", spans_s / reference_s, "frac");
  std::cout << "traced replay " << show(replay.wall_s)
            << " s between untraced solves of " << show(untraced_s.front())
            << " s and " << show(untraced_s.back()) << " s; phase spans cover "
            << show(spans_s) << " s\n";
  probe_moves(*replay.state, opts, r);
  return untraced_s;
}

// --- workloads -------------------------------------------------------------

void cold_solve(const RunConfig& cfg, Result& r, Tracer& tracer) {
  const alloc::AllocatorOptions opts = scale_options(2);
  dist::ThreadPool::shared(dist::resolve_workers(opts.num_threads));
  const auto make_cloud = [&] { return cold_cloud(cfg.seed); };
  SetupTimer setup;
  setup.batches(make_cloud);
  const model::Cloud cloud = make_cloud();

  Auditor audit(r);
  if (cfg.trace) {
    r.set("workload.scenario_s", setup.median_s(), "s");
    // Warm-up, as repeat_for does: the first solve in a process is slower.
    r.op(audit.feasible(alloc::ResourceAllocator(opts).run(cloud).allocation,
                        "warm-up solve"));
    const std::vector<double> untraced_s =
        trace_solve(cloud, opts, std::nullopt, tracer, audit, r);
    r.set("solve_s", median(untraced_s), "s");
    r.set("epoch_ms_tail", tail_of(to_ms(untraced_s)).value, "ms");
    probe_kernels(cloud, r);
    audit.report();
    return;
  }
  double profit = 0.0;
  bool first = true;
  const std::vector<double> solve_s = repeat_for(
      cfg.seconds, 2,
      [&] {
        const auto t0 = Clock::now();
        const alloc::AllocatorResult res =
            alloc::ResourceAllocator(opts).run(cloud);
        const double dt = seconds_since(t0);
        bool ok = audit.feasible(res.allocation, "cold solve");
        if (first) profit = res.report.final_profit;
        ok &= r.check(same_bits(res.report.final_profit, profit),
                      "repeated solve changed profit");
        first = false;
        r.op(ok);
        return dt;
      },
      [&] { setup.batch(make_cloud); });
  const std::vector<double> solve_ms = to_ms(solve_s);
  set_end_to_end(r, setup, median(solve_s), solve_ms, median(solve_ms),
                 profit);
  r.set("workload.scenario_s", setup.median_s(), "s");
  audit.report();
}

void warm_churn(const RunConfig& cfg, Result& r, Tracer& tracer) {
  const serve::OnlineOptions options = online_options();
  std::vector<double> scenario_s, stream_s, start_s;
  std::unique_ptr<model::Cloud> universe;
  workload::ChurnStream stream;
  std::unique_ptr<serve::OnlineServer> server;
  double start_profit = 0.0;
  // One set-up takes seconds, and a run cannot rebuild the serving state
  // between epochs, so all its batches come first.
  SetupTimer setup;
  setup.batches([&] {
    server.reset();
    const auto t0 = Clock::now();
    universe = std::make_unique<model::Cloud>(warm_universe(cfg.seed));
    scenario_s.push_back(seconds_since(t0));
    const auto t1 = Clock::now();
    stream = warm_stream(*universe, cfg.seed, kWarmStreamEpochs);
    stream_s.push_back(seconds_since(t1));
    const auto t2 = Clock::now();
    server = std::make_unique<serve::OnlineServer>(
        *universe, stream.initially_present, options);
    start_profit = server->start().profit;
    start_s.push_back(seconds_since(t2));
  });
  r.set("workload.scenario_s", median(scenario_s), "s");
  r.set("workload.churn_stream_s", median(stream_s), "s");

  // An infeasible epoch fails its operation and the loop carries on; see
  // NOTES.md for the known serving-layer failure this counts.
  Auditor audit(r);
  r.op(audit.feasible(server->allocation(), "epoch 0"));
  prof::set_enabled(cfg.trace);
  std::vector<double> epoch_ms, profits, apply_ms, repair_ms;
  int events = 0, admitted = 0, offered = 0, full = 0, infeasible = 0;
  double redirected = 0.0;
  const std::size_t epochs = static_cast<std::size_t>(
      std::clamp(static_cast<int>(cfg.seconds / kWarmNominalEpochS),
                 kWarmMinEpochs, kWarmStreamEpochs));
  const auto t_loop = Clock::now();
  for (std::size_t t = 0; t < epochs; ++t) {
    if (static_cast<int>(t) >= kWarmMinEpochs &&
        seconds_since(t_loop) > kHardCapS)
      break;
    if (cfg.trace) prof::reset();
    const auto t0 = Clock::now();
    const serve::EpochStats stats = server->step(stream.epochs[t]);
    epoch_ms.push_back(1e3 * seconds_since(t0));
    const bool ok =
        audit.feasible(server->allocation(), "epoch " + std::to_string(t + 1));
    r.op(ok);
    infeasible += ok ? 0 : 1;
    events += static_cast<int>(stream.epochs[t].size());
    admitted += stats.admitted;
    offered += stats.admitted + stats.rejected;
    full += stats.full_resolve ? 1 : 0;
    redirected += stats.diff.redirected;
    profits.push_back(stats.profit);
    if (cfg.trace) {
      double apply = 0.0, repair = 0.0;
      for (const prof::PhaseRow& row : prof::aggregate()) {
        const std::string_view name = row.name;
        if (name == "serve.apply_events") apply = row.total_ms;
        if (name == "serve.warm_repair") repair = row.total_ms;
      }
      apply_ms.push_back(apply);
      repair_ms.push_back(repair);
    }
  }
  prof::set_enabled(false);

  double profit = 0.0;
  for (int t = kWarmMinEpochs - 3; t < kWarmMinEpochs; ++t)
    profit += profits[static_cast<std::size_t>(t)] / 3.0;
  set_end_to_end(r, setup, median(start_s), epoch_ms, median(epoch_ms),
                 profit);

  const double n = static_cast<double>(epoch_ms.size());
  r.set("serve.events_per_epoch", events / n, "count");
  r.set("serve.admit_frac", offered ? double(admitted) / offered : 1.0, "frac");
  r.set("serve.redirected_per_epoch", redirected / n, "clients");
  r.set("serve.full_resolves", full, "count");
  r.set("serve.infeasible_epochs", infeasible, "count");
  if (cfg.trace) {
    // Profiler zone aggregates are inclusive: warm_repair contains the
    // allocator phases it calls.
    r.set("serve.apply_events_ms_p50", median(apply_ms), "ms");
    r.set("serve.warm_repair_ms_p50", median(repair_ms), "ms");
    std::cout << "serve.*_ms_p50 are inclusive profiler-zone times over "
              << apply_ms.size() << " epochs\n";
    // Replay epoch 0's cold solve: the batch solve over the initially
    // present clients that start() ran.
    std::vector<std::uint8_t> present(
        static_cast<std::size_t>(universe->num_clients()), 0);
    for (model::ClientId i : stream.initially_present) present[i.index()] = 1;
    alloc::AllocatorOptions cold = options.alloc;
    cold.insertable = &present;
    cold.migration_cost = 0.0;
    trace_solve(*universe, cold, start_profit, tracer, audit, r);
    probe_kernels(*universe, r);
  }
  audit.report();
}

void sim_replay(const RunConfig& cfg, Result& r, Tracer& tracer) {
  const alloc::AllocatorOptions opts;
  std::vector<double> scenario_s, solve_s;
  std::unique_ptr<model::Cloud> cloud;
  std::unique_ptr<alloc::AllocatorResult> solved;
  // Every set-up rebuilds the operations' input; the solve is
  // deterministic, so each rebuild is the same allocation.
  const auto set_up = [&] {
    solved.reset();
    const auto t0 = Clock::now();
    cloud = std::make_unique<model::Cloud>(sim_cloud());
    scenario_s.push_back(seconds_since(t0));
    const auto t1 = Clock::now();
    solved = std::make_unique<alloc::AllocatorResult>(
        alloc::ResourceAllocator(opts).run(*cloud));
    solve_s.push_back(seconds_since(t1));
  };
  SetupTimer setup;
  setup.batches(set_up);
  Auditor audit(r);
  r.op(audit.feasible(solved->allocation, "setup solve"));

  sim::ReplicationOptions ro;
  ro.sim.horizon = kSimHorizon;
  ro.sim.seed = cfg.seed;
  ro.replications = kSimReplications;
  ro.num_threads = 1;
  std::size_t events = 0, iso_events = 0, wc_events = 0;
  double iso_s = 0.0, wc_s = 0.0, rel_err = 0.0;
  const std::vector<double> op_s = repeat_for(
      cfg.seconds, cfg.trace ? 1 : 3,
      [&] {
        double dt = 0.0;
        std::size_t op_events = 0;
        bool ok = true;
        for (sim::GpsMode mode :
             {sim::GpsMode::kIsolated, sim::GpsMode::kWorkConserving}) {
          ro.sim.mode = mode;
          const auto t0 = Clock::now();
          const sim::ReplicationReport rep =
              sim::run_replications(solved->allocation, ro);
          const double mode_s = seconds_since(t0);
          dt += mode_s;
          op_events += rep.events_executed;
          if (mode == sim::GpsMode::kIsolated) {
            iso_s += mode_s;
            iso_events += rep.events_executed;
            rel_err = rep.mean_abs_rel_error;
            ok &= r.expect(rel_err < kSimRelErrBound,
                           "isolated-GPS model error " + show(rel_err) +
                               " exceeds " + show(kSimRelErrBound));
          } else {
            wc_s += mode_s;
            wc_events += rep.events_executed;
          }
        }
        if (events == 0) events = op_events;
        ok &= r.check(op_events == events,
                      "repeated replication set executed a different number "
                      "of events");
        r.op(ok);
        return dt;
      },
      [&] { setup.batch(set_up); });
  const std::vector<double> op_ms = to_ms(op_s);
  set_end_to_end(r, setup, median(solve_s), op_ms, median(op_ms),
                 solved->report.final_profit);
  r.set("workload.scenario_s", median(scenario_s), "s");
  r.set("sim.events", static_cast<double>(events), "count");
  r.set("sim_events_per_s",
        static_cast<double>(iso_events + wc_events) / (iso_s + wc_s), "1/s");
  r.set("sim.isolated_events_per_s", static_cast<double>(iso_events) / iso_s,
        "1/s");
  r.set("sim.work_conserving_events_per_s",
        static_cast<double>(wc_events) / wc_s, "1/s");
  r.set("sim.model_rel_err", rel_err, "frac");
  if (cfg.trace) {
    trace_solve(*cloud, opts, solved->report.final_profit, tracer, audit, r);
    probe_kernels(*cloud, r);
  }
  audit.report();
}

void dist_solve(const RunConfig& cfg, Result& r, Tracer&) {
  SetupTimer setup;
  setup.batches(dist_cloud);
  const model::Cloud cloud = dist_cloud();

  // Operations cycle through kDistPaths solver seeds, warm-up included; a
  // repeated path must reproduce its first solve's profit and traffic
  // exactly.
  Auditor audit(r);
  std::vector<std::unique_ptr<dist::DistributedResult>> paths(kDistPaths);
  std::vector<int> order;  // every operation's path, the warm-up's first
  const std::vector<double> solve_s = repeat_for(
      cfg.seconds, kDistPaths,
      [&] {
        const int path = static_cast<int>(order.size()) % kDistPaths;
        order.push_back(path);
        const auto t0 = Clock::now();
        auto res = std::make_unique<dist::DistributedResult>(
            dist::DistributedAllocator(dist_options(cfg.seed, path))
                .run(cloud));
        const double dt = seconds_since(t0);
        const dist::DistributedReport& rep = res->report;
        bool ok = audit.feasible(res->allocation, "distributed solve");
        ok &= r.expect(rep.responses_missed == 0,
                       "fault-free run missed " +
                           std::to_string(rep.responses_missed) +
                           " responses");
        if (const auto& first = paths[static_cast<std::size_t>(path)]) {
          ok &= r.check(
              same_bits(rep.final_profit, first->report.final_profit) &&
                  rep.bytes == first->report.bytes &&
                  rep.messages == first->report.messages,
              "repeated distributed solve changed profit or traffic");
        } else {
          paths[static_cast<std::size_t>(path)] = std::move(res);
        }
        r.op(ok);
        return dt;
      },
      [&] { setup.batch(dist_cloud); });
  r.set("workload.scenario_s", setup.median_s(), "s");
  // The reported time is each path's median, averaged over the paths, so
  // every run weighs the paths equally however many solves fit in it (at
  // least kDistPaths are timed, so every path has one).
  std::vector<std::vector<double>> path_ms(kDistPaths);
  for (std::size_t k = 0; k < solve_s.size(); ++k)
    path_ms[static_cast<std::size_t>(order[k + 1])].push_back(1e3 *
                                                              solve_s[k]);
  double balanced_ms = 0.0;
  for (const std::vector<double>& ms : path_ms)
    balanced_ms += median(ms) / kDistPaths;

  double profit = 0.0, bytes = 0.0, messages = 0.0, rounds = 0.0, missed = 0.0,
         stale = 0.0;
  for (const auto& res : paths) {
    profit += res->report.final_profit / kDistPaths;
    bytes += static_cast<double>(res->report.bytes) / kDistPaths;
    messages += static_cast<double>(res->report.messages) / kDistPaths;
    rounds += static_cast<double>(res->report.rounds_run) / kDistPaths;
    missed += res->report.responses_missed;
    stale += static_cast<double>(res->report.stale_messages);
  }
  set_end_to_end(r, setup, 1e-3 * balanced_ms, to_ms(solve_s), balanced_ms,
                 profit);
  std::cout << "epoch_ms_p50 is the mean over " << kDistPaths
            << " solver-seed paths of each path's median\n";
  const double wire_kb = bytes / 1024.0;
  r.set("wire_kb", wire_kb, "KiB");
  r.set("dist.rounds", rounds, "count");
  r.set("dist.messages_per_round", messages / rounds, "count");
  r.set("dist.kb_per_round", wire_kb / rounds, "KiB");
  r.set("dist.responses_missed", missed, "count");
  r.set("dist.stale_messages", stale, "count");
  if (cfg.trace) {
    // The manager's initial solution on path 0, rebuilt with its options.
    const alloc::AllocatorOptions& aopts = dist_options(cfg.seed, 0).alloc;
    const int workers = dist::resolve_workers(aopts.num_threads);
    dist::ThreadPool* pool =
        workers > 1 ? &dist::ThreadPool::shared(workers) : nullptr;
    const dist::ParallelEval eval(pool);
    cloudalloc::Rng rng(aopts.seed);
    const auto t0 = Clock::now();
    const model::Allocation initial =
        alloc::build_initial_solution(cloud, aopts, rng, eval);
    const double initial_s = seconds_since(t0);
    const double initial_profit = cloudalloc::model::profit(initial);
    const double expected = paths.front()->report.initial_profit;
    r.op(r.check(same_bits(initial_profit, expected),
                 "rebuilt initial profit " + show(initial_profit) +
                     " != manager's " + show(expected)));
    r.set("dist.initial_s", initial_s, "s");
    r.set("alloc.initial_s", initial_s, "s");
    r.set("dist.round_ms", (balanced_ms - 1e3 * initial_s) / rounds, "ms");
    model::AllocState state(std::move(paths.front()->allocation));
    probe_moves(state, aopts, r);
    probe_kernels(cloud, r);
  }
  audit.report();
}

}  // namespace

std::uint64_t input_fingerprint(const std::string& name, std::uint64_t seed) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto mix_cloud = [&](const model::Cloud& cloud) {
    for (const model::Client& c : cloud.clients()) {
      mix(c.lambda_pred);
      mix(c.lambda_agreed);
      mix(c.alpha_p);
      mix(c.alpha_n);
    }
    for (const model::ServerClass& sc : cloud.server_classes()) {
      mix(sc.cap_p);
      mix(sc.cap_n);
      mix(sc.cap_m);
    }
    mix(static_cast<double>(cloud.num_servers()));
  };
  if (name == "cold_solve") {
    mix_cloud(cold_cloud(seed));
  } else if (name == "warm_churn") {
    const model::Cloud universe = warm_universe(seed);
    mix_cloud(universe);
    const workload::ChurnStream stream =
        warm_stream(universe, seed, kWarmStreamEpochs);
    for (const auto& epoch : stream.epochs)
      for (const workload::ChurnEvent& e : epoch) {
        mix(static_cast<double>(e.client.value()));
        mix(e.rate);
      }
  } else if (name == "sim_replay") {
    mix_cloud(sim_cloud());
    for (std::uint64_t s : sim::replication_seeds(seed, kSimReplications))
      mix(static_cast<double>(s));
  } else if (name == "dist_solve") {
    mix_cloud(dist_cloud());
    for (int path = 0; path < kDistPaths; ++path)
      mix(static_cast<double>(dist_options(seed, path).alloc.seed));
  } else {
    return 0;
  }
  return h;
}

bool run_workload(const RunConfig& config, Result& result) {
  Tracer tracer;
  prof::set_enabled(false);
  if (config.workload == "cold_solve") {
    cold_solve(config, result, tracer);
  } else if (config.workload == "warm_churn") {
    warm_churn(config, result, tracer);
  } else if (config.workload == "sim_replay") {
    sim_replay(config, result, tracer);
  } else if (config.workload == "dist_solve") {
    dist_solve(config, result, tracer);
  } else {
    return false;
  }
  result.set("peak_rss_mb", peak_rss_mb(), "MiB");
  result.set("failed_frac",
             static_cast<double>(result.failed()) /
                 std::max(1, result.attempted()),
             "frac");
  if (config.trace && !config.spans_path.empty() &&
      !tracer.write_chrome(config.spans_path))
    std::cout << "note: could not write spans to " << config.spans_path << "\n";
  return true;
}

void reproduce_stay_branch(Result& r) {
  constexpr std::uint64_t kSeed = 11;
  constexpr int kEpochs = 12;
  const model::Cloud universe = warm_universe(kSeed);
  const workload::ChurnStream stream = warm_stream(universe, kSeed, kEpochs);
  serve::OnlineServer server(universe, stream.initially_present,
                             online_options());
  server.start();
  // The last rate each client was given by a demand-change event, to name
  // the event behind an unstable queue.
  std::vector<double> last_change(
      static_cast<std::size_t>(universe.num_clients()), 0.0);
  for (std::size_t t = 0; t < stream.epochs.size(); ++t) {
    for (const workload::ChurnEvent& e : stream.epochs[t])
      if (e.kind == workload::ChurnEvent::Kind::kDemandChange)
        last_change[e.client.index()] = e.rate;
    server.step(stream.epochs[t]);
    const std::vector<model::Violation> v =
        model::check_feasibility(server.allocation());
    std::cout << "epoch " << t + 1 << ": " << v.size() << " violations";
    if (!v.empty()) {
      const model::Violation& first = v.front();
      std::cout << "; first: " << first.describe();
      if (first.client.valid())
        std::cout << " (client " << first.client.value()
                  << ", last demand change to rate "
                  << show(last_change[first.client.index()]) << ")";
    }
    std::cout << "\n";
    r.op(v.empty());
  }
  r.set("failed_frac",
        static_cast<double>(r.failed()) / std::max(1, r.attempted()), "frac");
}

}  // namespace allocbench
