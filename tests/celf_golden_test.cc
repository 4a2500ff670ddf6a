// Golden-schedule determinism test for the CELF engine.
//
// The schedules below were produced by the from-scratch engine (every
// seeding scan re-evaluates every peering, every expectation re-walks its
// candidate list) on the fixture worlds; that engine now lives on as the
// test oracle in tests/celf_reference.h. The orchestrator's engine —
// cross-round seed-marginal caching with dirty-UG invalidation, running
// per-UG aggregates, cached-seed pruning, flat hot-path layouts — must
// reproduce them at any thread count, and must equal the oracle byte for
// byte in the widened action space and under a learned model too. A
// mismatch here means the engine's caches changed the greedy's result, even
// if that result is still a valid greedy schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/orchestrator.h"
#include "core/sim_environment.h"
#include "tests/celf_reference.h"
#include "tests/world_fixture.h"

namespace painter::core {
namespace {

using Schedule = std::vector<std::vector<std::uint32_t>>;

Schedule ToSchedule(const AdvertisementConfig& config) {
  EXPECT_TRUE(config.AllAttrsDefault());
  Schedule out;
  for (std::size_t p = 0; p < config.PrefixCount(); ++p) {
    auto& prefix = out.emplace_back();
    for (const auto sid : config.Sessions(p)) prefix.push_back(sid.value());
  }
  return out;
}

constexpr ActionSpaceConfig kWideSpace{
    .max_prepend = 2, .enable_lower_pref = true, .enable_no_export = true};

void ExpectGolden(const test::World& w, const ProblemInstance& inst,
                  std::size_t budget, const Schedule& golden) {
  OrchestratorConfig cfg;
  cfg.prefix_budget = budget;
  const RoutingModel fresh{inst.UgCount()};
  // The oracle reproduces the pinned schedule; the engine equals the oracle.
  EXPECT_EQ(ToSchedule(test::ReferenceComputeConfig(inst, fresh, cfg)), golden)
      << "oracle";
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    cfg.num_threads = threads;
    const Orchestrator orch{inst, cfg};
    EXPECT_EQ(ToSchedule(orch.ComputeConfig()), golden)
        << "threads=" << threads;
  }
  OrchestratorConfig wide = cfg;
  wide.action_space = kWideSpace;
  test::ExpectEngineMatchesReference(inst, fresh, wide, "wide, fresh model");

  // A learned model: preferences and measured RTTs make the engine's
  // running-aggregate fast path fall back to the from-scratch walk.
  OrchestratorConfig learn_cfg = cfg;
  learn_cfg.max_learning_iterations = 2;
  Orchestrator learner{inst, learn_cfg};
  SimEnvironment env{*w.resolver, *w.oracle, util::Rng{budget + 5}};
  (void)learner.Learn(env);
  ASSERT_GT(learner.model().PreferenceCount(), 0u);
  test::ExpectEngineMatchesReference(inst, learner.model(), cfg,
                                     "legacy, learned model");
  test::ExpectEngineMatchesReference(inst, learner.model(), wide,
                                     "wide, learned model");
}

TEST(CelfGoldenSchedule, DefaultWorldBudget8) {
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  const Schedule golden{
      {9, 15, 18, 21, 41, 45, 46, 49, 50, 56, 82, 127, 129},
      {10, 12, 22, 27, 28, 29, 30, 52, 77, 84, 87, 95, 101, 107, 110, 117,
       128},
      {7, 26, 41, 44, 61, 63, 73, 89, 129},
      {13, 15, 36, 37, 56, 66, 82, 115, 117, 125},
      {2, 3, 11, 28, 51, 88, 104},
      {23, 26, 28, 30, 52, 82, 88, 100, 104, 106},
      {1, 4, 6, 8, 56, 115},
      {17, 19, 32, 66, 99},
  };
  ExpectGolden(w, inst, 8, golden);
}

struct SeededGolden {
  std::uint64_t seed;
  Schedule golden;
};

class CelfGoldenSeeds : public ::testing::TestWithParam<SeededGolden> {};

TEST_P(CelfGoldenSeeds, Budget5) {
  const auto& param = GetParam();
  const test::World& w = test::SharedWorld(param.seed, 130, 8);
  const auto inst = test::MakeInstance(w, param.seed + 77);
  ExpectGolden(w, inst, 5, param.golden);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CelfGoldenSeeds,
    ::testing::Values(
        SeededGolden{3,
                     {{14, 19, 30, 37, 55, 56, 68, 69, 80, 96, 121},
                      {1, 4, 5, 26, 27, 36, 64, 79, 100, 117},
                      {21, 26, 29, 51, 80, 94, 96, 109, 117, 125},
                      {26, 56, 61, 63, 94, 106, 111, 112, 119},
                      {7, 9, 55, 70, 79, 113}}},
        SeededGolden{17,
                     {{11, 17, 21, 30, 35, 51, 63, 88, 98, 117, 121, 125},
                      {6, 8, 10, 11, 55, 56, 59, 72, 81, 88, 126},
                      {1, 17, 35, 47, 48, 51, 64, 69, 77, 81, 82},
                      {14, 24, 27, 29, 85, 93, 94, 115, 116},
                      {20, 26, 28, 46, 55, 62, 98, 111, 117}}},
        SeededGolden{64,
                     {{2, 8, 12, 13, 20, 24, 77, 89, 93, 102, 121, 130},
                      {6, 26, 29, 31, 37, 57, 91, 102, 129},
                      {22, 23, 38, 50, 55, 57, 74, 89},
                      {1, 15, 29, 46, 52, 87, 88, 89, 92},
                      {13, 17, 28, 29, 39, 121}}},
        SeededGolden{301,
                     {{8, 9, 10, 32, 34, 35, 36, 41, 48, 56, 57, 73, 87, 88,
                       94, 110},
                      {17, 18, 21, 35, 56, 80, 88, 89},
                      {20, 33, 40, 54, 59, 65, 69, 72, 73, 81, 83, 88, 97,
                       109},
                      {29, 32, 35, 51, 56, 59, 61, 67, 73, 105},
                      {8, 24, 31, 54, 55, 80, 97}}},
        SeededGolden{888,
                     {{9, 17, 20, 21, 22, 27, 31, 34, 45, 52, 89, 100, 105,
                       111, 112, 119},
                      {10, 15, 31, 54, 87, 89, 90, 93, 109},
                      {12, 16, 31, 35, 39, 41, 58, 72, 99, 108},
                      {13, 14, 34, 52, 61, 89, 99, 112, 113, 115, 119},
                      {11, 24, 31, 65, 73, 90, 103, 113}}}));

}  // namespace
}  // namespace painter::core
