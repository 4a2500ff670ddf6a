// From-scratch reference for Orchestrator::ComputeConfig (the test oracle).
//
// A serial, cache-free statement of Algorithm 1's greedy as the orchestrator
// schedules it: per prefix, lazy CELF over (peering, variant) heap entries
// with the same `Scored` tie-break, but every seed marginal is re-evaluated
// every prefix round and every expectation is recomputed from the UG's full
// candidate list with ComputeExpectationFromCandidates (legacy action space)
// or ComputeExpectationAttributed (widened space). The production engine's
// seed caches, running aggregates and cached-seed pruning must reproduce
// this output byte for byte; the golden-schedule, property and pruning tests
// compare the two through ConfigToString.
#pragma once

#include <string>

#include "core/advertisement.h"
#include "core/orchestrator.h"
#include "core/problem.h"
#include "core/routing_model.h"

namespace painter::test {

// The configuration ComputeConfig would produce for `instance` under `model`
// with every session up. Reads prefix_budget, the expectation parameters,
// action_space and enable_reuse from `config`; num_threads, the caches and
// the audit hooks do not apply.
[[nodiscard]] core::AdvertisementConfig ReferenceComputeConfig(
    const core::ProblemInstance& instance, const core::RoutingModel& model,
    const core::OrchestratorConfig& config);

// gtest check: an Orchestrator built from `config` and holding `model`
// computes exactly the oracle's configuration (compared through
// ConfigToString) at 1 and at 8 threads. `what` labels failures.
void ExpectEngineMatchesReference(const core::ProblemInstance& instance,
                                  const core::RoutingModel& model,
                                  const core::OrchestratorConfig& config,
                                  const std::string& what);

}  // namespace painter::test
