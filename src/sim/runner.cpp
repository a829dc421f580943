#include "sim/runner.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/stats.h"

namespace cloudalloc::sim {
namespace {

using model::Allocation;
using model::ClientId;
using model::Cloud;
using model::ServerId;

/// What to do with a finished job's payload, per (station, flow). Built
/// once at wiring time into a flat table indexed by global flow id; the
/// run loop switches on `kind`.
struct FlowAction {
  enum class Kind : std::uint8_t { kForwardToComm, kRecordResponse };
  Kind kind = Kind::kRecordResponse;
  // kForwardToComm: destination + per-job mean work booked on the server.
  GpsStation* comm = nullptr;
  std::int32_t comm_flow = -1;
  std::int32_t server = -1;
  double alpha_p = 0.0;
  // kRecordResponse: the client whose response-time sink receives it.
  std::int32_t client = -1;
};

struct Slice {
  GpsStation* proc;
  double cum_psi;  ///< cumulative for dispatch sampling
  std::int32_t proc_flow;
};

/// A client's Poisson source plus its span in the flat slice table.
struct Source {
  double lambda;
  std::int32_t slice_begin;
  std::int32_t slice_end;
};

}  // namespace

SimulationReport simulate_allocation(const Allocation& alloc,
                                     const SimOptions& opts) {
  const Cloud& cloud = alloc.cloud();
  Simulation sim(opts.seed);
  const double warmup = opts.warmup_fraction * opts.horizon;

  // Stations for servers that actually host someone: per server, the
  // processing stage then the communication stage, ids in creation
  // order. Stations are stored by value (contiguous) and share one
  // request-record slab and one flow arena, reserved up front (each
  // hosted client contributes one flow to each of its servers' stages).
  std::size_t hosting = 0;
  std::size_t total_flows = 0;
  for (ServerId j : cloud.server_ids()) {
    const std::size_t on = alloc.clients_on(j).size();
    if (on == 0) continue;
    ++hosting;
    total_flows += 2 * on;
  }
  RequestPool pool;
  std::vector<GpsStation::Flow> flow_arena;
  flow_arena.reserve(total_flows);
  std::vector<GpsStation> stations;
  stations.reserve(2 * hosting);
  std::vector<GpsStation*> proc(static_cast<std::size_t>(cloud.num_servers()),
                                nullptr);
  std::vector<GpsStation*> comm(static_cast<std::size_t>(cloud.num_servers()),
                                nullptr);
  auto make_station = [&](double capacity, int max_flows) {
    stations.emplace_back(sim, pool, flow_arena,
                          static_cast<std::int32_t>(stations.size()),
                          capacity, opts.mode, max_flows);
    return &stations.back();
  };
  for (ServerId j : cloud.server_ids()) {
    const int on = static_cast<int>(alloc.clients_on(j).size());
    if (on == 0) continue;
    const auto& sc = cloud.server_class_of(j);
    proc[j.index()] = make_station(sc.cap_p, on);
    comm[j.index()] = make_station(sc.cap_n, on);
  }

  // Response-time sinks and per-server completed-work accounting.
  std::vector<Summary> responses(
      static_cast<std::size_t>(cloud.num_clients()));
  std::vector<std::vector<double>> samples(
      static_cast<std::size_t>(cloud.num_clients()));
  std::vector<double> proc_work_done(
      static_cast<std::size_t>(cloud.num_servers()), 0.0);

  // Wire flows: per placement, a processing flow feeding a comm flow.
  // Flow indices equal the per-station add_flow order; actions are
  // collected per station first, then flattened into one table indexed
  // by flow_base[station] + flow.
  std::vector<std::vector<FlowAction>> station_actions(stations.size());
  std::vector<Slice> slices;
  std::vector<Source> sources;
  for (ClientId i : cloud.client_ids()) {
    if (!alloc.is_assigned(i)) continue;
    const auto& c = cloud.client(i);
    const std::int32_t slice_begin = static_cast<std::int32_t>(slices.size());
    double cum = 0.0;
    for (const auto& p : alloc.placements(i)) {
      GpsStation* proc_station = proc[p.server.index()];
      GpsStation* comm_station = comm[p.server.index()];
      // Communication flow: completes the request.
      const int comm_flow = comm_station->add_flow(p.phi_n, c.alpha_n);
      FlowAction record;
      record.kind = FlowAction::Kind::kRecordResponse;
      record.client = i.value();
      station_actions[static_cast<std::size_t>(comm_station->id())].push_back(
          record);
      // Processing flow: forwards into the communication stage and books
      // the (mean) work it completed on its server.
      const int proc_flow = proc_station->add_flow(p.phi_p, c.alpha_p);
      FlowAction forward;
      forward.kind = FlowAction::Kind::kForwardToComm;
      forward.comm = comm_station;
      forward.comm_flow = comm_flow;
      forward.server = p.server.value();
      forward.alpha_p = c.alpha_p;
      station_actions[static_cast<std::size_t>(proc_station->id())].push_back(
          forward);
      cum += p.psi;
      slices.push_back(
          Slice{proc_station, cum, static_cast<std::int32_t>(proc_flow)});
    }
    sources.push_back(Source{c.lambda_pred * opts.demand_factor, slice_begin,
                             static_cast<std::int32_t>(slices.size())});
  }

  // Flatten the per-station action lists: flow_base[s] + flow is the
  // global flow id, one indexed load in the completion hot path.
  std::vector<std::int32_t> flow_base(stations.size() + 1, 0);
  for (std::size_t s = 0; s < stations.size(); ++s)
    flow_base[s + 1] =
        flow_base[s] + static_cast<std::int32_t>(station_actions[s].size());
  std::vector<FlowAction> actions;
  actions.reserve(static_cast<std::size_t>(flow_base[stations.size()]));
  for (const auto& list : station_actions)
    actions.insert(actions.end(), list.begin(), list.end());

  // Poisson sources: self-re-arming arrival events per client.
  for (std::size_t s = 0; s < sources.size(); ++s)
    sim.schedule_in(
        sim.rng().exponential(sources[s].lambda),
        Event{EventKind::kSourceArrival, static_cast<std::int32_t>(s), 0});

  const bool tails = opts.collect_percentiles;
  const Slice* const slice_data = slices.data();
  const FlowAction* const action_data = actions.data();
  const std::int32_t* const flow_base_data = flow_base.data();
  // The run loop: pop typed events and dispatch on the tag. Drains
  // completely — sources stop re-arming once the clock passes the
  // generation horizon.
  Event ev;
  while (sim.next(ev)) {
    switch (ev.kind) {
      case EventKind::kSourceArrival: {
        const Source& src = sources[static_cast<std::size_t>(ev.target)];
        if (sim.now() >= opts.horizon) break;  // stop generating, drain
        const Slice* const first = slice_data + src.slice_begin;
        const Slice* const last = slice_data + src.slice_end - 1;
        const Slice* chosen = last;
        if (opts.dispatch == DispatchPolicy::kStaticPsi || first == last) {
          const double u = sim.rng().uniform() * last->cum_psi;
          for (const Slice* s = first; s != last; ++s) {
            if (u <= s->cum_psi) {
              chosen = s;
              break;
            }
          }
        } else {
          // Least expected wait over the processing stage: the cluster
          // dispatcher reacting to live backlog instead of the planned psi.
          double best_wait = std::numeric_limits<double>::infinity();
          for (const Slice* s = first; s <= last; ++s) {
            const double rate = s->proc->flow_service_rate(s->proc_flow);
            const double wait =
                static_cast<double>(s->proc->jobs_in_flow(s->proc_flow) + 1) /
                rate;
            if (wait < best_wait) {
              best_wait = wait;
              chosen = s;
            }
          }
        }
        chosen->proc->arrive(chosen->proc_flow, sim.now());
        sim.schedule_in(sim.rng().exponential(src.lambda), ev);
        break;
      }
      case EventKind::kStationComplete: {
        GpsStation& station = *(stations.data() + ev.target);
        const FlowAction& act =
            action_data[flow_base_data[ev.target] + ev.flow];
        // Pop the finished request and route it before resuming the flow,
        // so downstream service-demand draws keep the seed sim's order.
        const double start = station.finish_head(ev.flow);
        if (act.kind == FlowAction::Kind::kForwardToComm) {
          proc_work_done[static_cast<std::size_t>(act.server)] += act.alpha_p;
          act.comm->arrive(act.comm_flow, start);
        } else if (start >= warmup) {
          const double sojourn = sim.now() - start;
          responses[static_cast<std::size_t>(act.client)].add(sojourn);
          if (tails)
            samples[static_cast<std::size_t>(act.client)].push_back(sojourn);
        }
        station.resume(ev.flow);
        break;
      }
    }
  }

  SimulationReport report;
  report.events_executed = sim.executed();
  Summary errors;
  for (ClientId i : cloud.client_ids()) {
    if (!alloc.is_assigned(i)) continue;
    const Summary& s = responses[i.index()];
    ClientSimStats stats;
    stats.id = i;
    stats.completed = s.count();
    stats.mean_response = s.mean();
    stats.ci95 = s.ci95_halfwidth();
    stats.analytic_response = alloc.response_time(i);
    auto& my_samples = samples[i.index()];
    if (tails && !my_samples.empty()) {
      const std::vector<double> q = quantiles(my_samples, {0.50, 0.95, 0.99});
      stats.p50 = q[0];
      stats.p95 = q[1];
      stats.p99 = q[2];
    }
    report.total_completed += stats.completed;
    if (stats.completed > 0 && std::isfinite(stats.analytic_response) &&
        stats.analytic_response > 0.0)
      errors.add(std::fabs(stats.mean_response - stats.analytic_response) /
                 stats.analytic_response);
    report.clients.push_back(stats);
  }
  for (ServerId j : cloud.server_ids()) {
    if (alloc.clients_on(j).empty()) continue;
    ServerSimStats stats;
    stats.id = j;
    stats.measured_util_p =
        proc_work_done[j.index()] /
        (cloud.server_class_of(j).cap_p * opts.horizon);
    stats.analytic_util_p = alloc.proc_utilization(j);
    report.servers.push_back(stats);
  }
  report.mean_abs_rel_error = errors.mean();
  return report;
}

}  // namespace cloudalloc::sim
