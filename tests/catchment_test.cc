// Cached-seed pruning soundness (DESIGN.md §14).
//
// A dirty peering whose cached seed marginal is already ≤ 0 skips its
// re-evaluation. The skip must be provably irrelevant: the catchment_audit
// hook re-runs every skipped marginal and this test asserts each one is ≤ 0
// (it could never have entered the heap), that pruning actually fired, and
// that the pruned engine's configuration equals the from-scratch oracle's
// byte for byte — in the legacy and the widened action space.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/config_io.h"
#include "core/orchestrator.h"
#include "obs/metrics.h"
#include "tests/celf_reference.h"
#include "tests/world_fixture.h"

namespace painter::core {
namespace {

void ExpectSoundPruning(const ActionSpaceConfig& space, std::size_t threads) {
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  std::mutex mu;
  std::vector<double> audited;
  OrchestratorConfig cfg;
  cfg.prefix_budget = 8;
  cfg.num_threads = threads;
  cfg.action_space = space;
  cfg.catchment_audit = [&](util::PeeringId, double fresh) {
    const std::lock_guard<std::mutex> lock{mu};
    audited.push_back(fresh);
  };
  const Orchestrator orch{inst, cfg};
  const obs::Counter& pruned_evals =
      obs::Metrics().GetCounter("celf.pruned.seed_evals");
  const std::uint64_t pruned0 = pruned_evals.Value();
  const std::string got = ConfigToString(orch.ComputeConfig());
  const std::uint64_t pruned = pruned_evals.Value() - pruned0;

  EXPECT_GT(pruned, 0u) << "pruning never fired — audit vacuous";
  EXPECT_EQ(audited.size(), pruned) << "a skip went unaudited";
  for (const double fresh : audited) EXPECT_LE(fresh, 0.0);
  EXPECT_EQ(got, ConfigToString(test::ReferenceComputeConfig(
                     inst, orch.model(), cfg)))
      << "pruned engine differs from the from-scratch oracle";
}

TEST(CatchmentPruning, AuditedSkipsAreNonPositiveLegacySpace) {
  ExpectSoundPruning(ActionSpaceConfig{}, 1);
  ExpectSoundPruning(ActionSpaceConfig{}, 8);
}

TEST(CatchmentPruning, AuditedSkipsAreNonPositiveWideSpace) {
  const ActionSpaceConfig wide{
      .max_prepend = 1, .enable_lower_pref = true, .enable_no_export = true};
  ExpectSoundPruning(wide, 1);
  ExpectSoundPruning(wide, 8);
}

}  // namespace
}  // namespace painter::core
