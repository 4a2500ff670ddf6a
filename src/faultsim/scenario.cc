#include "faultsim/scenario.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "netsim/sim.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "tm/tm_pop.h"
#include "util/hashmix.h"
#include "util/rng.h"

namespace painter::faultsim {
namespace {

// PoP addresses follow the Fig. 10 convention: PoP k serves 0x02020202 +
// k * 0x01010101 (PoP-A = 2.2.2.2, PoP-B = 3.3.3.3, ...), which keeps the
// refactored failover scenario bit-identical to the hand-written original.
netsim::IpAddr PopAddress(std::size_t pop_index) {
  return 0x02020202u + 0x01010101u * static_cast<netsim::IpAddr>(pop_index);
}

void CountInjected(const FaultInjector& injector, FaultScenarioResult& result) {
  result.injected = injector.InjectedTmCounts();
  for (std::size_t t = 0; t < kFaultTypeCount; ++t) {
    if (result.injected[t] == 0) continue;
    obs::Metrics()
        .GetCounter(std::string{"faultsim.injected."} +
                    FaultTypeName(static_cast<FaultType>(t)))
        .Add(result.injected[t]);
  }
}

}  // namespace

FaultScenarioResult RunFaultScenario(const FaultScenarioSpec& spec,
                                     const FaultPlan& plan) {
  const obs::TraceSpan span{"faultsim.RunFaultScenario"};
  netsim::Simulator sim;

  std::vector<std::unique_ptr<tm::TmPop>> pops;
  pops.reserve(spec.pop_names.size());
  for (std::size_t p = 0; p < spec.pop_names.size(); ++p) {
    pops.push_back(std::make_unique<tm::TmPop>(
        sim, spec.pop_names[p], std::vector<netsim::IpAddr>{PopAddress(p)}));
  }

  std::vector<int> tunnel_pop;
  tunnel_pop.reserve(spec.tunnels.size());
  for (const ScenarioTunnel& t : spec.tunnels) tunnel_pop.push_back(t.pop);
  const FaultInjector injector{plan, tunnel_pop};

  std::vector<tm::TunnelConfig> tunnels;
  tunnels.reserve(spec.tunnels.size());
  for (std::size_t i = 0; i < spec.tunnels.size(); ++i) {
    const ScenarioTunnel& t = spec.tunnels[i];
    tunnels.push_back(tm::TunnelConfig{
        .name = t.name,
        .remote_ip = t.remote_ip,
        .path = injector.WrapPath(i, t.base_path),
        .pop = pops.at(static_cast<std::size_t>(t.pop)).get(),
        .admit = injector.AdmitFilter(i)});
  }

  tm::TmEdge edge{sim, spec.edge, std::move(tunnels)};
  edge.Start();
  edge.SampleEvery(spec.sample_every_s, spec.run_for_s);

  FaultScenarioResult result;

  // Pinning recorder: read-only snapshots of the flow table on the sample
  // grid (no RNG draws, so it cannot perturb the TmEdge event sequence).
  // SortedItems() is already FlowKey-ordered — the store's slot order never
  // leaks into results. Sample k lands at exactly k * sample_us on the
  // absolute integer grid, never at an accumulated relative sum.
  const netsim::SimTime sample_us =
      netsim::UsFromSeconds(spec.sample_every_s);
  std::function<void(std::uint64_t)> record_pinning =
      [&](std::uint64_t sample_index) {
        if (sim.Now() > spec.run_for_s) return;
        FaultScenarioResult::PinningSnapshot snap;
        snap.t = sim.Now();
        for (const auto& [key, stats] : edge.flows().SortedItems()) {
          snap.flow_tunnels.emplace_back(key, stats.tunnel);
        }
        result.pinning.push_back(std::move(snap));
        sim.ScheduleAtUs((sample_index + 1) * sample_us,
                         [&record_pinning, sample_index]() {
                           record_pinning(sample_index + 1);
                         });
      };
  record_pinning(0);

  if (spec.attach) spec.attach(sim, edge, tunnel_pop);

  // Streaming telemetry: sampled edge state on the registry's grid. The
  // samplers are pure reads of edge state, so they cannot perturb the run.
  if (spec.timeseries != nullptr) {
    spec.timeseries->RegisterSampler(
        "tm.edge.chosen_tunnel",
        [&edge]() { return static_cast<double>(edge.chosen()); });
    spec.timeseries->RegisterSampler("tm.edge.tunnels_up", [&edge]() {
      std::size_t up = 0;
      for (std::size_t i = 0; i < edge.TunnelCount(); ++i) {
        if (edge.TunnelRttMs(i).has_value()) ++up;
      }
      return static_cast<double>(up);
    });
    netsim::StartSampling(sim, *spec.timeseries, spec.run_for_s);
  }

  // Flight-recorder journal: each plan event's onset and clear, stamped at
  // the moment it takes effect on the timeline. Scheduled only when the
  // recorder is on, so a disabled run's event sequence is untouched.
  if (obs::FlightRecorder::Enabled()) {
    for (const FaultEvent& ev : plan.events) {
      sim.Schedule(ev.start_s, [&sim, ev]() {
        obs::FlightRecorder::Record(
            sim.NowUs(), "faultsim", obs::Severity::kWarn,
            FaultTypeName(ev.type),
            {{"target", static_cast<double>(ev.target)},
             {"severity", ev.severity},
             {"duration_s", ev.duration_s}});
      });
      if (std::isfinite(ev.end_s()) && ev.end_s() <= spec.run_for_s) {
        sim.Schedule(ev.end_s(), [&sim, ev]() {
          obs::FlightRecorder::Record(
              sim.NowUs(), "faultsim", obs::Severity::kInfo, "fault_cleared",
              {{"target", static_cast<double>(ev.target)}});
        });
      }
    }
  }

  for (const ScenarioFlow& flow : spec.flows) {
    sim.Schedule(flow.start_s, [&edge, flow]() {
      edge.StartFlow(flow.key, flow.packets, flow.interval_s,
                     flow.payload_bytes);
    });
  }

  sim.Run(spec.run_for_s);

  for (std::size_t i = 0; i < edge.TunnelCount(); ++i) {
    result.tunnel_names.push_back(edge.TunnelName(i));
  }
  result.samples = edge.samples();
  result.failovers = edge.failovers();
  for (const auto& pop : pops) {
    result.pop_data_packets.push_back(pop->stats().data_packets);
  }
  result.flow_stats = edge.flows().SortedItems();

  // Switchover event series: exact failover times (not the sample grid),
  // value = tunnel switched to. Appended post-run so it cannot interleave
  // with the sampling chain.
  if (spec.timeseries != nullptr) {
    for (const tm::TmEdge::FailoverEvent& ev : result.failovers) {
      spec.timeseries->Append("tm.edge.switchover", netsim::UsFromSeconds(ev.t),
                              static_cast<double>(ev.to));
    }
  }

  CountInjected(injector, result);
  return result;
}

FaultScenarioSpec GenerateRandomSpec(std::uint64_t seed,
                                     const WorldSpec& world) {
  util::Rng rng{util::MixSeed(seed, 0x5EC0ULL)};
  FaultScenarioSpec spec;
  spec.run_for_s = world.run_for_s;
  spec.sample_every_s = world.sample_every_s;
  spec.edge.seed = seed;

  const std::size_t pops =
      world.min_pops + rng.Index(world.max_pops - world.min_pops + 1);
  for (std::size_t p = 0; p < pops; ++p) {
    spec.pop_names.push_back("PoP-" + std::to_string(p));
  }
  const std::size_t tunnels =
      world.min_tunnels + rng.Index(world.max_tunnels - world.min_tunnels + 1);
  for (std::size_t i = 0; i < tunnels; ++i) {
    const double delay_s = rng.Uniform(world.min_delay_s, world.max_delay_s);
    spec.tunnels.push_back(ScenarioTunnel{
        .name = "tunnel-" + std::to_string(i),
        .remote_ip = 0x0a0a0a00u + static_cast<netsim::IpAddr>(i),
        .base_path = netsim::PathModel::Fixed(delay_s),
        .pop = static_cast<int>(i % pops),
        .steady_delay_s = delay_s});
  }

  spec.flows.push_back(ScenarioFlow{
      .start_s = 1.0,
      .key = netsim::FlowKey{.src_ip = 0xc0a80001,
                             .dst_ip = 0x08080808,
                             .src_port = 5001,
                             .dst_port = 443},
      .packets = 1200,
      .interval_s = 0.05});
  spec.flows.push_back(ScenarioFlow{
      .start_s = world.run_for_s * 0.45,
      .key = netsim::FlowKey{.src_ip = 0xc0a80002,
                             .dst_ip = 0x08080808,
                             .src_port = 5002,
                             .dst_port = 443},
      .packets = 400,
      .interval_s = 0.05});
  return spec;
}

}  // namespace painter::faultsim
