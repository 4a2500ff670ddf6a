// The CELF engine's incremental Eq. 2 probe on hand-built instances.
//
// The fixture worlds rarely produce the cases where the probe's per-candidate
// dominance flags and tiering can go wrong: preference cycles, retracted
// preferences, candidates exactly D_reuse apart, a probed peering that beats
// an already-committed candidate, and exact marginal ties. Each case below
// pins the configuration Algorithm 1 must produce (worked out by hand in the
// comments) and compares the engine against the from-scratch oracle
// (tests/celf_reference.h) at 1 and 8 threads, in the legacy and the widened
// action space.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/config_io.h"
#include "core/orchestrator.h"
#include "obs/metrics.h"
#include "tests/celf_reference.h"

namespace painter::core {
namespace {

constexpr ActionSpaceConfig kWideSpace{
    .max_prepend = 1, .enable_lower_pref = true, .enable_no_export = true};

const util::PeeringId kA{0};
const util::PeeringId kB{1};
const util::PeeringId kC{2};
const util::PeeringId kD{3};

IngressOption Opt(util::PeeringId peering, double rtt_ms, double km) {
  return IngressOption{
      .peering = peering, .rtt_ms = rtt_ms, .distance_km = km,
      .in_peer_cone = true};
}

// An instance from per-UG weights, anycast RTTs and option lists (each
// sorted by peering id); the inverted index and totals are derived.
ProblemInstance HandBuilt(std::size_t peering_count,
                          std::vector<double> weights,
                          std::vector<double> anycast,
                          std::vector<std::vector<IngressOption>> options) {
  ProblemInstance inst;
  inst.ug_weight = std::move(weights);
  inst.anycast_rtt_ms = std::move(anycast);
  inst.options = std::move(options);
  inst.peering_count = peering_count;
  inst.ugs_with_peering.resize(peering_count);
  for (std::uint32_t u = 0; u < inst.UgCount(); ++u) {
    inst.total_weight += inst.ug_weight[u];
    for (const IngressOption& o : inst.options[u]) {
      inst.ugs_with_peering[o.peering.value()].push_back(u);
    }
  }
  return inst;
}

// ConfigToString of plain prefixes given as session lists.
std::string Plain(const std::vector<std::vector<util::PeeringId>>& prefixes) {
  AdvertisementConfig config;
  for (const auto& sessions : prefixes) config.AddPrefix(sessions);
  return ConfigToString(config);
}

// The legacy-space configuration must be `want` in the oracle and in the
// engine, and the engine must equal the oracle in both action spaces.
void ExpectSchedule(const ProblemInstance& inst, const RoutingModel& model,
                    OrchestratorConfig cfg, const std::string& want,
                    const std::string& what) {
  EXPECT_EQ(ConfigToString(test::ReferenceComputeConfig(inst, model, cfg)),
            want)
      << what << ": oracle";
  test::ExpectEngineMatchesReference(inst, model, cfg, what + ", legacy");
  cfg.action_space = kWideSpace;
  test::ExpectEngineMatchesReference(inst, model, cfg, what + ", wide");
}

OrchestratorConfig Budget(std::size_t prefixes) {
  OrchestratorConfig cfg;
  cfg.prefix_budget = prefixes;
  return cfg;
}

// UG0 (weight 1.5) prefers B over A; UG1 has no preferences. Prefix 0
// commits A (seed 180 vs 170). B's refreshed marginal: UG0 drops A (B beats
// it), so E goes 40 -> 20 (+1.5 * 20); UG1's mean goes 10 -> 30 (-20).
// Net +10, so B joins. Were A kept for UG0, E would be 30 and the net -5.
ProblemInstance BeatsCommittedInstance() {
  return HandBuilt(2, {1.5, 1.0}, {100.0, 100.0},
                   {{Opt(kA, 40.0, 100.0), Opt(kB, 20.0, 100.0)},
                    {Opt(kA, 10.0, 100.0), Opt(kB, 50.0, 100.0)}});
}

TEST(CelfProbe, ProbeBeatsCommittedCandidate) {
  const ProblemInstance inst = BeatsCommittedInstance();
  Orchestrator orch{inst, Budget(3)};
  const util::PeeringId both[] = {kA, kB};
  orch.mutable_model().ObservePreference(0, kB, both);
  ExpectSchedule(inst, orch.model(), Budget(3), Plain({{kA, kB}, {kA}}),
                 "probe beats committed");
}

TEST(CelfProbe, CommitMarksEarlierCandidateDominated) {
  // UG0 (weight 1.5) prefers B over A and also hears C at 4 ms. UG4 makes
  // A commit first (seed 279); B follows (fresh 60 beats C's 25), which
  // must mark UG0's A dominated. C's refreshed marginal then sees B and C
  // alone for UG0 (E 20 -> 12, +12) against UG2's -2: C joins prefix 0.
  // Were A still counted, UG0's mean would rise to 21.3 and C would stay
  // out.
  const ProblemInstance inst = HandBuilt(
      3, {1.5, 1.0, 0.1, 1.0, 1.0}, {100.0, 100.0, 100.0, 100.0, 100.0},
      {{Opt(kA, 40.0, 100.0), Opt(kB, 20.0, 100.0), Opt(kC, 4.0, 100.0)},
       {Opt(kA, 10.0, 100.0), Opt(kB, 50.0, 100.0)},
       {Opt(kA, 10.0, 100.0), Opt(kC, 50.0, 100.0)},
       {Opt(kB, 50.0, 100.0)},
       {Opt(kA, 10.0, 100.0)}});
  Orchestrator orch{inst, Budget(1)};
  const util::PeeringId both[] = {kA, kB};
  orch.mutable_model().ObservePreference(0, kB, both);
  ExpectSchedule(inst, orch.model(), Budget(1), Plain({{kA, kB, kC}}),
                 "commit marks dominated");
}

TEST(CelfProbe, RetractedPreference) {
  // Same instance; UG0 first appears to prefer A, then a later observation
  // puts it on B with A available, which retracts A > B. The schedule must
  // be the one for B > A alone.
  const ProblemInstance inst = BeatsCommittedInstance();
  Orchestrator orch{inst, Budget(3)};
  const util::PeeringId both[] = {kA, kB};
  orch.mutable_model().ObservePreference(0, kA, both);
  orch.mutable_model().ObservePreference(0, kB, both);
  ASSERT_TRUE(orch.model().Prefers(0, kB, kA));
  ASSERT_FALSE(orch.model().Prefers(0, kA, kB));
  ExpectSchedule(inst, orch.model(), Budget(3), Plain({{kA, kB}, {kA}}),
                 "retracted");
}

TEST(CelfProbe, PreferenceCycleMakesUgUnusable) {
  // UG0 (weight 0.1) holds the cycle A > B > C > A. UG1 only hears A and
  // UG2 only B, so prefix 0 commits A then B (ties break to the lower id);
  // UG0 keeps A (A beats B), E = 30. Probing C: C beats A, B beats C, B is
  // beaten by A — every candidate is dominated, UG0's prefix is unusable,
  // and C's marginal is 0.1 * (30 - 100) < 0. C gets prefix 1 alone.
  const ProblemInstance inst = HandBuilt(
      3, {0.1, 1.0, 1.0}, {100.0, 100.0, 100.0},
      {{Opt(kA, 30.0, 100.0), Opt(kB, 30.0, 100.0), Opt(kC, 10.0, 100.0)},
       {Opt(kA, 10.0, 100.0)},
       {Opt(kB, 10.0, 100.0)}});
  Orchestrator orch{inst, Budget(3)};
  RoutingModel& model = orch.mutable_model();
  const util::PeeringId ab[] = {kA, kB};
  const util::PeeringId bc[] = {kB, kC};
  const util::PeeringId ca[] = {kC, kA};
  model.ObservePreference(0, kA, ab);
  model.ObservePreference(0, kB, bc);
  model.ObservePreference(0, kC, ca);
  const IngressOption* all[] = {&inst.options[0][0], &inst.options[0][1],
                                &inst.options[0][2]};
  ASSERT_FALSE(
      ComputeExpectationFromCandidates(orch.model(), 0, all, {}).usable);
  ExpectSchedule(inst, orch.model(), Budget(3), Plain({{kA, kB}, {kC}}),
                 "3-cycle");
}

TEST(CelfProbe, DreuseBoundaryIsInclusive) {
  // D_reuse = 3000 km. UG0 (weight 5) hears A at 100 km, B at exactly
  // 3100 km (kept: 3000 km farther) and C at 3100.5 km (dropped). UG1 only
  // hears B, UG2 only C. Prefix 0 commits A; B would pull UG0's mean from
  // 10 to 30 (5 * -20 + 60 < 0), C leaves it at 10 (+60): A and C share
  // prefix 0, B gets prefix 1. D (never worth advertising) carries UG0's
  // only preference in the second run, which sends UG0 off the running-sum
  // fast path onto the probe.
  const ProblemInstance inst = HandBuilt(
      4, {5.0, 1.0, 1.0}, {100.0, 100.0, 100.0},
      {{Opt(kA, 10.0, 100.0), Opt(kB, 50.0, 3100.0), Opt(kC, 50.0, 3100.5),
        Opt(kD, 200.0, 100.0)},
       {Opt(kB, 40.0, 100.0)},
       {Opt(kC, 40.0, 100.0)}});
  const std::string want = Plain({{kA, kC}, {kB}});
  const RoutingModel fresh{inst.UgCount()};
  ExpectSchedule(inst, fresh, Budget(3), want, "D_reuse, fast path");

  Orchestrator orch{inst, Budget(3)};
  const util::PeeringId ad[] = {kA, kD};
  orch.mutable_model().ObservePreference(0, kA, ad);
  obs::Counter& fallbacks =
      obs::Metrics().GetCounter("orchestrator.celf.expectation_fallbacks");
  const auto before = fallbacks.Value();
  ExpectSchedule(inst, orch.model(), Budget(3), want, "D_reuse, probe");
  EXPECT_GT(fallbacks.Value(), before);
}

// Exact marginal ties: lower peering id first, then the plainest variant.
TEST(CelfProbe, TieBreakPrefersLowerPeering) {
  // Peering 0 serves nobody. UG0 hears B and C at the same RTT: seeds tie at
  // 80, B commits, and C's refreshed marginal is 0. Reversing the peering
  // order would advertise C instead.
  const ProblemInstance inst =
      HandBuilt(3, {1.0}, {100.0},
                {{Opt(kB, 20.0, 100.0), Opt(kC, 20.0, 100.0)}});
  const RoutingModel fresh{inst.UgCount()};
  const std::string want = Plain({{kB}});
  OrchestratorConfig cfg = Budget(2);
  for (const ActionSpaceConfig space : {ActionSpaceConfig{}, kWideSpace}) {
    cfg.action_space = space;
    EXPECT_EQ(ConfigToString(test::ReferenceComputeConfig(inst, fresh, cfg)),
              want);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      cfg.num_threads = threads;
      EXPECT_EQ(ConfigToString(Orchestrator{inst, cfg}.ComputeConfig()), want)
          << "threads=" << threads;
    }
  }
}

TEST(CelfProbe, TieBreakPrefersPlainestVariant) {
  // One in-cone UG on one peering: every variant (plain, prepend 1,
  // lower-pref, no-export) has the same marginal. The plain announcement
  // must win; reversing the variant order would pick no-export.
  const ProblemInstance inst =
      HandBuilt(1, {1.0}, {100.0}, {{Opt(kA, 20.0, 100.0)}});
  const RoutingModel fresh{inst.UgCount()};
  OrchestratorConfig cfg = Budget(2);
  cfg.action_space = kWideSpace;
  const std::string want = Plain({{kA}});
  EXPECT_EQ(ConfigToString(test::ReferenceComputeConfig(inst, fresh, cfg)),
            want);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    cfg.num_threads = threads;
    const AdvertisementConfig got = Orchestrator{inst, cfg}.ComputeConfig();
    EXPECT_EQ(ConfigToString(got), want) << "threads=" << threads;
    EXPECT_TRUE(got.AllAttrsDefault());
  }
}

}  // namespace
}  // namespace painter::core
