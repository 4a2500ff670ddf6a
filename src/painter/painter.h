// PAINTER — Precise, Agile INgress Traffic Engineering & Routing.
//
// Umbrella header: the full public API of the library, grouped by layer.
// Downstream users normally need only this include.
//
//   namespace painter::topo      — geography, AS graph, Internet generator
//   namespace painter::bgpsim    — Gao–Rexford routing engine, dynamics,
//                                  valley-free path counting
//   namespace painter::cloudsim  — cloud deployment, ingress resolution,
//                                  policy-compliance catalog
//   namespace painter::measure   — latency ground truth + probes,
//                                  geolocation-based estimation
//   namespace painter::dnssim    — resolvers, TTL-violation studies,
//                                  steering-granularity analysis
//   namespace painter::core      — the paper's contribution: the
//                                  Advertisement Orchestrator (Algorithm 1),
//                                  routing model, baselines, evaluation
//   namespace painter::netsim    — discrete-event packet simulation
//   namespace painter::tm        — Traffic Manager (TM-Edge / TM-PoP),
//                                  failover & congestion scenarios
//
// Quick start (see examples/quickstart.cpp for the full walkthrough):
//
//   topo::Internet net = topo::GenerateInternet({.seed = 1});
//   cloudsim::Deployment dep = cloudsim::BuildDeployment(net, {});
//   cloudsim::PolicyCatalog catalog{net, dep};
//   cloudsim::IngressResolver resolver{net, dep};
//   measure::LatencyOracle oracle{net, dep, {}};
//   util::Rng rng{7};
//   core::ProblemInstance inst = core::BuildMeasuredInstance(
//       net, dep, catalog, resolver, oracle, rng);
//   core::Orchestrator orchestrator{inst, {.prefix_budget = 25}};
//   core::SimEnvironment env{resolver, oracle, util::Rng{13}};
//   auto reports = orchestrator.Learn(env);
#pragma once

#include "bgpsim/dynamics.h"
#include "bgpsim/engine.h"
#include "bgpsim/path_count.h"
#include "bgpsim/route.h"
#include "bgpsim/session_sim.h"
#include "cloudsim/deployment.h"
#include "cloudsim/ingress.h"
#include "core/advertisement.h"
#include "core/baselines.h"
#include "core/evaluate.h"
#include "core/orchestrator.h"
#include "core/config_io.h"
#include "core/problem.h"
#include "core/prefix_pool.h"
#include "core/resilience.h"
#include "core/routing_model.h"
#include "core/sim_environment.h"
#include "dnssim/granularity.h"
#include "dnssim/resolvers.h"
#include "dnssim/ttl_study.h"
#include "measure/geolocation.h"
#include "measure/latency.h"
#include "netsim/link.h"
#include "netsim/nat.h"
#include "netsim/packet.h"
#include "netsim/path.h"
#include "netsim/sim.h"
#include "faultsim/bgp_replay.h"
#include "faultsim/failover_scenario.h"
#include "faultsim/fault_injector.h"
#include "faultsim/fault_plan.h"
#include "faultsim/invariants.h"
#include "faultsim/scenario.h"
#include "tm/congestion_scenario.h"
#include "tm/control.h"
#include "tm/tm_edge.h"
#include "tm/tm_pop.h"
#include "topo/as_graph.h"
#include "topo/generator.h"
#include "topo/geo.h"
#include "util/hashmix.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"
