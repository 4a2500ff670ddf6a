#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/evaluate.h"
#include "core/orchestrator.h"
#include "core/sim_environment.h"
#include "obs/metrics.h"
#include "tests/world_fixture.h"

namespace painter::core {
namespace {

class OrchestratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    w_ = test::MakeWorld();
    inst_ = test::MakeInstance(w_);
  }
  OrchestratorConfig Cfg(std::size_t budget) {
    OrchestratorConfig cfg;
    cfg.prefix_budget = budget;
    cfg.max_learning_iterations = 3;
    return cfg;
  }
  test::World w_;
  ProblemInstance inst_;
};

TEST_F(OrchestratorTest, RespectsBudget) {
  Orchestrator orch{inst_, Cfg(3)};
  const auto cfg = orch.ComputeConfig();
  EXPECT_LE(cfg.PrefixCount(), 3u);
}

TEST_F(OrchestratorTest, PredictedBenefitNonNegativeAndOrdered) {
  Orchestrator orch{inst_, Cfg(5)};
  const auto cfg = orch.ComputeConfig();
  const auto pred = orch.Predict(cfg);
  EXPECT_GE(pred.lower_ms, 0.0);
  EXPECT_LE(pred.lower_ms, pred.mean_ms + 1e-9);
  EXPECT_LE(pred.mean_ms, pred.upper_ms + 1e-9);
  EXPECT_GE(pred.estimated_ms, pred.lower_ms - 1e-9);
  EXPECT_LE(pred.estimated_ms, pred.upper_ms + 1e-9);
  EXPECT_GT(pred.mean_ms, 0.0);  // some UG must benefit in this world
}

TEST_F(OrchestratorTest, MoreBudgetNeverPredictsWorse) {
  Orchestrator orch{inst_, Cfg(8)};
  const auto cfg = orch.ComputeConfig();
  double prev = -1.0;
  for (std::size_t b = 1; b <= cfg.PrefixCount(); ++b) {
    const auto pred = orch.Predict(Truncate(cfg, b));
    EXPECT_GE(pred.mean_ms, prev - 1e-9);
    prev = pred.mean_ms;
  }
}

TEST_F(OrchestratorTest, EveryAdvertisedSessionHasAUser) {
  Orchestrator orch{inst_, Cfg(4)};
  const auto cfg = orch.ComputeConfig();
  for (std::size_t p = 0; p < cfg.PrefixCount(); ++p) {
    for (const auto sid : cfg.Sessions(p)) {
      EXPECT_FALSE(inst_.ugs_with_peering[sid.value()].empty());
    }
  }
}

TEST_F(OrchestratorTest, ReuseDisabledGivesSingletonPrefixes) {
  auto cfg = Cfg(4);
  cfg.enable_reuse = false;
  Orchestrator orch{inst_, cfg};
  const auto result = orch.ComputeConfig();
  for (std::size_t p = 0; p < result.PrefixCount(); ++p) {
    EXPECT_EQ(result.Sessions(p).size(), 1u);
  }
}

TEST_F(OrchestratorTest, ReuseUsesFewerPrefixesForSameBenefit) {
  // With reuse enabled, the same budget should predict at least the benefit
  // of the no-reuse ablation (it strictly generalizes it).
  Orchestrator with{inst_, Cfg(4)};
  auto cfg = Cfg(4);
  cfg.enable_reuse = false;
  Orchestrator without{inst_, cfg};
  const auto pw = with.Predict(with.ComputeConfig());
  const auto po = without.Predict(without.ComputeConfig());
  EXPECT_GE(pw.mean_ms, po.mean_ms - 1e-9);
}

TEST_F(OrchestratorTest, LearnImprovesOrHolds) {
  Orchestrator orch{inst_, Cfg(5)};
  SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{9}};
  const auto reports = orch.Learn(env);
  ASSERT_FALSE(reports.empty());
  // The best realized benefit across iterations >= the un-learned first
  // iteration (learning may transiently dip while digesting surprising
  // observations, but must not be strictly harmful overall).
  double best = 0.0;
  for (const auto& r : reports) best = std::max(best, r.realized_ms);
  EXPECT_GE(best, reports.front().realized_ms - 1e-6);
  for (const auto& r : reports) {
    EXPECT_GE(r.realized_ms, 0.0);
    EXPECT_LE(r.prefixes_used, 5u);
  }
}

TEST_F(OrchestratorTest, LearningShrinksUncertainty) {
  Orchestrator orch{inst_, Cfg(5)};
  SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{9}};
  const auto reports = orch.Learn(env);
  ASSERT_FALSE(reports.empty());
  // Some learned iteration must be at least as certain as the unlearned
  // first one (observations replace equal-likelihood assumptions; individual
  // iterations can widen if the greedy reuses more aggressively).
  const auto& first = reports.front().predicted;
  double narrowest = first.upper_ms - first.lower_ms;
  for (const auto& r : reports) {
    narrowest = std::min(narrowest, r.predicted.upper_ms - r.predicted.lower_ms);
  }
  EXPECT_LE(narrowest, first.upper_ms - first.lower_ms + 1e-6);
}

TEST_F(OrchestratorTest, AbsorbRecordsObservations) {
  Orchestrator orch{inst_, Cfg(3)};
  const auto cfg = orch.ComputeConfig();
  SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{4}};
  const auto obs = env.Execute(cfg);
  EXPECT_EQ(orch.model().PreferenceCount(), 0u);
  orch.Absorb(cfg, obs);
  // With multi-session prefixes and many UGs, some preference must be learned
  // unless every prefix is a singleton.
  bool any_multi = false;
  for (std::size_t p = 0; p < cfg.PrefixCount(); ++p) {
    if (cfg.Sessions(p).size() > 1) any_multi = true;
  }
  if (any_multi) {
    EXPECT_GT(orch.model().PreferenceCount(), 0u);
  }
}

TEST_F(OrchestratorTest, LearningDisabledDoesNotTouchModel) {
  auto c = Cfg(3);
  c.enable_learning = false;
  Orchestrator orch{inst_, c};
  SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{4}};
  const auto reports = orch.Learn(env);
  EXPECT_EQ(reports.size(), 1u);
  EXPECT_EQ(orch.model().PreferenceCount(), 0u);
}

TEST_F(OrchestratorTest, ZeroBudgetYieldsEmptyConfig) {
  Orchestrator orch{inst_, Cfg(0)};
  const auto cfg = orch.ComputeConfig();
  EXPECT_EQ(cfg.PrefixCount(), 0u);
  EXPECT_DOUBLE_EQ(orch.Predict(cfg).mean_ms, 0.0);
}

TEST_F(OrchestratorTest, ComputeConfigIdenticalAcrossThreadCounts) {
  // num_threads governs only Predict; the greedy pass must not depend on it.
  auto run = [&](std::size_t threads) {
    auto c = Cfg(6);
    c.num_threads = threads;
    Orchestrator orch{inst_, c};
    return orch.ComputeConfig();
  };
  const auto ref = run(1);
  ASSERT_GT(ref.PrefixCount(), 0u);
  for (const std::size_t t : {2ul, 8ul}) {
    const auto got = run(t);
    ASSERT_EQ(got.PrefixCount(), ref.PrefixCount()) << t << " threads";
    for (std::size_t p = 0; p < ref.PrefixCount(); ++p) {
      EXPECT_EQ(got.Sessions(p), ref.Sessions(p))
          << "prefix " << p << " at " << t << " threads";
    }
  }
}

TEST_F(OrchestratorTest, ComputeConfigNeverEntersThreadPool) {
  // CELF's seeding scan gains nothing from threads, so ComputeConfig runs
  // serially whatever num_threads says.
  const obs::Counter& pf_calls =
      obs::Metrics().GetCounter("threadpool.parallel_for.calls");
  auto c = Cfg(6);
  c.num_threads = 8;
  Orchestrator orch{inst_, c};
  const std::uint64_t before = pf_calls.Value();
  const auto cfg = orch.ComputeConfig();
  ASSERT_GT(cfg.PrefixCount(), 0u);
  EXPECT_EQ(pf_calls.Value(), before);
}

TEST_F(OrchestratorTest, PredictBitIdenticalAcrossThreadCounts) {
  auto base = Cfg(5);
  base.num_threads = 1;
  Orchestrator serial{inst_, base};
  const auto cfg = serial.ComputeConfig();
  const auto ref = serial.Predict(cfg);
  for (const std::size_t t : {2ul, 8ul}) {
    auto c = Cfg(5);
    c.num_threads = t;
    Orchestrator orch{inst_, c};
    const auto got = orch.Predict(cfg);
    EXPECT_EQ(got.lower_ms, ref.lower_ms) << t << " threads";
    EXPECT_EQ(got.mean_ms, ref.mean_ms) << t << " threads";
    EXPECT_EQ(got.estimated_ms, ref.estimated_ms) << t << " threads";
    EXPECT_EQ(got.upper_ms, ref.upper_ms) << t << " threads";
  }
}

TEST_F(OrchestratorTest, LearnIdenticalAcrossThreadCounts) {
  auto run = [&](std::size_t threads) {
    auto c = Cfg(4);
    c.num_threads = threads;
    Orchestrator orch{inst_, c};
    SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{9}};
    return orch.Learn(env);
  };
  const auto ref = run(1);
  const auto got = run(8);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].realized_ms, ref[i].realized_ms) << "iteration " << i;
    EXPECT_EQ(got[i].predicted.mean_ms, ref[i].predicted.mean_ms);
    EXPECT_EQ(got[i].prefixes_used, ref[i].prefixes_used);
  }
}

TEST(LearningTerminationTest, NegativeButImprovingDoesNotStop) {
  // Regression: with `best` initialized to 0 and a multiplicative-only
  // margin, an all-negative benefit sequence never advanced the best marker
  // and learning quit after `patience` rounds even while still improving.
  std::vector<double> realized;
  for (int i = 0; i < 6; ++i) {
    realized.push_back(-10.0 + i);  // strictly improving by 1 ms per round
    EXPECT_FALSE(LearningShouldStop(realized, 0.01, 1e-3, 2))
        << "after " << realized.size() << " reports";
  }
}

TEST(LearningTerminationTest, FlatNegativeStopsAfterPatience) {
  std::vector<double> realized{-3.0};
  EXPECT_FALSE(LearningShouldStop(realized, 0.01, 1e-3, 2));
  realized.push_back(-3.0);
  EXPECT_FALSE(LearningShouldStop(realized, 0.01, 1e-3, 2));
  realized.push_back(-3.0);
  EXPECT_TRUE(LearningShouldStop(realized, 0.01, 1e-3, 2));
}

TEST(LearningTerminationTest, ZeroBaselineNeedsAbsoluteEpsilon) {
  // Regression: at best == 0 the multiplicative tolerance is degenerate —
  // any ε > 0 used to count as an improvement and reset the patience clock.
  const std::vector<double> realized{0.0, 1e-9, 2e-9};
  EXPECT_TRUE(LearningShouldStop(realized, 0.01, 1e-3, 2));
}

TEST(LearningTerminationTest, RealImprovementResetsPatience) {
  const std::vector<double> improving{1.0, 1.0, 5.0};
  EXPECT_FALSE(LearningShouldStop(improving, 0.01, 1e-3, 2));
  const std::vector<double> flat{1.0, 5.0, 5.0, 5.0};
  EXPECT_TRUE(LearningShouldStop(flat, 0.01, 1e-3, 2));
}

TEST(AdvertisementConfigTest, AddAndQuery) {
  AdvertisementConfig cfg;
  const auto p = cfg.AddPrefix({util::PeeringId{3}, util::PeeringId{1},
                                util::PeeringId{3}});
  EXPECT_EQ(cfg.Sessions(p).size(), 2u);  // deduped
  EXPECT_EQ(cfg.Sessions(p).front(), util::PeeringId{1});  // sorted
  EXPECT_TRUE(cfg.Contains(p, util::PeeringId{3}));
  EXPECT_FALSE(cfg.Contains(p, util::PeeringId{2}));
  cfg.AddToPrefix(p, util::PeeringId{2});
  EXPECT_TRUE(cfg.Contains(p, util::PeeringId{2}));
  EXPECT_EQ(cfg.AnnouncementCount(), 3u);
  EXPECT_EQ(cfg.NonEmptyPrefixCount(), 1u);
}

TEST(SimEnvironmentTest, ObservationsMatchResolver) {
  const test::World& w = test::SharedWorld();
  SimEnvironment env{*w.resolver, *w.oracle, util::Rng{2}};
  AdvertisementConfig cfg;
  const util::PeeringId transit = w.deployment->TransitPeerings().front();
  cfg.AddPrefix({transit});
  const auto obs = env.Execute(cfg);
  ASSERT_EQ(obs.size(), 1u);
  const auto expected = w.resolver->Resolve(cfg.Sessions(0));
  for (std::uint32_t u = 0; u < expected.size(); ++u) {
    EXPECT_EQ(obs[0].ingress_of_ug[u], expected[u]);
    if (expected[u].has_value()) {
      EXPECT_GE(obs[0].rtt_ms_of_ug[u],
                w.oracle->TrueRtt(util::UgId{u}, *expected[u]).count());
    }
  }
}

TEST(SimEnvironmentTest, RejectsNonPositivePingCount) {
  const test::World& w = test::SharedWorld();
  for (const int bad : {0, -2}) {
    EXPECT_THROW((SimEnvironment{*w.resolver, *w.oracle, util::Rng{2}, bad}),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW((SimEnvironment{*w.resolver, *w.oracle, util::Rng{2}, 1}));
}

TEST(OrchestratorValidation, RejectsInvalidExpectationParams) {
  const ProblemInstance inst = test::MakeInstance(test::SharedWorld());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double d_reuse : {-1.0, -1e-9, nan}) {
    OrchestratorConfig cfg;
    cfg.d_reuse_km = d_reuse;
    EXPECT_THROW((Orchestrator{inst, cfg}), std::invalid_argument)
        << "d_reuse_km=" << d_reuse;
  }
  for (const double decay : {0.0, -4000.0, nan}) {
    OrchestratorConfig cfg;
    cfg.inflation_decay_km = decay;
    EXPECT_THROW((Orchestrator{inst, cfg}), std::invalid_argument)
        << "inflation_decay_km=" << decay;
  }
  OrchestratorConfig zero_reuse;
  zero_reuse.d_reuse_km = 0.0;  // legal: only equidistant candidates share
  EXPECT_NO_THROW((Orchestrator{inst, zero_reuse}));
}

}  // namespace
}  // namespace painter::core
