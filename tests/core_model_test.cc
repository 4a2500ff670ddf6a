#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/problem.h"
#include "core/routing_model.h"
#include "tests/world_fixture.h"

namespace painter::core {
namespace {

// Builds a tiny hand-rolled instance: 2 UGs, 4 sessions.
//   UG0: sessions {0:20ms @100km, 1:50ms @5000km, 2:30ms @800km}, anycast 40.
//   UG1: sessions {1:25ms @300km, 3:60ms @9000km}, anycast 35.
ProblemInstance TinyInstance() {
  ProblemInstance inst;
  inst.ug_weight = {2.0, 1.0};
  inst.anycast_rtt_ms = {40.0, 35.0};
  inst.options = {
      {{util::PeeringId{0}, 20.0, 100.0},
       {util::PeeringId{1}, 50.0, 5000.0},
       {util::PeeringId{2}, 30.0, 800.0}},
      {{util::PeeringId{1}, 25.0, 300.0},
       {util::PeeringId{3}, 60.0, 9000.0}},
  };
  inst.peering_count = 4;
  inst.ugs_with_peering = {{0}, {0, 1}, {0}, {1}};
  inst.total_weight = 3.0;
  return inst;
}

TEST(ProblemInstance, OptionLookup) {
  const auto inst = TinyInstance();
  ASSERT_NE(inst.Option(0, util::PeeringId{2}), nullptr);
  EXPECT_DOUBLE_EQ(inst.Option(0, util::PeeringId{2})->rtt_ms, 30.0);
  EXPECT_EQ(inst.Option(0, util::PeeringId{3}), nullptr);
}

TEST(ProblemInstance, TotalPossibleBenefit) {
  const auto inst = TinyInstance();
  // UG0 best 20 (saves 20, weight 2), UG1 best 25 (saves 10, weight 1).
  EXPECT_NEAR(inst.TotalPossibleBenefitMs(), (2 * 20 + 1 * 10) / 3.0, 1e-9);
}

TEST(Expectation, SingleCandidateExact) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  const util::PeeringId ad[] = {util::PeeringId{0}};
  const auto e = ComputeExpectation(inst, model, 0, ad, {});
  ASSERT_TRUE(e.usable);
  EXPECT_EQ(e.candidate_count, 1u);
  EXPECT_DOUBLE_EQ(e.mean_rtt, 20.0);
  EXPECT_DOUBLE_EQ(e.lower_rtt, 20.0);
  EXPECT_DOUBLE_EQ(e.upper_rtt, 20.0);
  EXPECT_DOUBLE_EQ(e.estimated_rtt, 20.0);
}

TEST(Expectation, NonCompliantPrefixUnusable) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  const util::PeeringId ad[] = {util::PeeringId{3}};
  EXPECT_FALSE(ComputeExpectation(inst, model, 0, ad, {}).usable);
}

TEST(Expectation, ParamsValidate) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NO_THROW(ExpectationParams{}.Validate());
  EXPECT_NO_THROW((ExpectationParams{.d_reuse_km = 0.0}.Validate()));
  for (const double d_reuse : {-1.0, -0.0001, nan}) {
    EXPECT_THROW((ExpectationParams{.d_reuse_km = d_reuse}.Validate()),
                 std::invalid_argument)
        << d_reuse;
  }
  for (const double decay : {0.0, -1.0, nan}) {
    EXPECT_THROW((ExpectationParams{.inflation_decay_km = decay}.Validate()),
                 std::invalid_argument)
        << decay;
  }
}

TEST(Expectation, MeanOverCandidates) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  const util::PeeringId ad[] = {util::PeeringId{0}, util::PeeringId{2}};
  const auto e = ComputeExpectation(inst, model, 0, ad,
                                    ExpectationParams{.d_reuse_km = 10000});
  ASSERT_TRUE(e.usable);
  EXPECT_EQ(e.candidate_count, 2u);
  EXPECT_DOUBLE_EQ(e.mean_rtt, 25.0);
  EXPECT_DOUBLE_EQ(e.lower_rtt, 20.0);
  EXPECT_DOUBLE_EQ(e.upper_rtt, 30.0);
  // Estimated is inflation-weighted toward the nearer candidate.
  EXPECT_LT(e.estimated_rtt, e.mean_rtt);
}

TEST(Expectation, DreuseExcludesFarCandidates) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  // Sessions 0 (100 km) and 1 (5000 km): with D_reuse = 3000, the far one
  // is assumed unused; expectation collapses to session 0.
  const util::PeeringId ad[] = {util::PeeringId{0}, util::PeeringId{1}};
  const auto e = ComputeExpectation(inst, model, 0, ad,
                                    ExpectationParams{.d_reuse_km = 3000});
  ASSERT_TRUE(e.usable);
  EXPECT_EQ(e.candidate_count, 1u);
  EXPECT_DOUBLE_EQ(e.mean_rtt, 20.0);
}

TEST(Expectation, DreuseKeepsCandidatesWithinThreshold) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  const util::PeeringId ad[] = {util::PeeringId{0}, util::PeeringId{2}};
  const auto e = ComputeExpectation(inst, model, 0, ad,
                                    ExpectationParams{.d_reuse_km = 3000});
  EXPECT_EQ(e.candidate_count, 2u);  // 800 - 100 = 700 < 3000
}

TEST(RoutingModelTest, PreferenceExcludesDominated) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  const util::PeeringId cands[] = {util::PeeringId{0}, util::PeeringId{2}};
  // Observed: UG0 entered via session 2 when 0 and 2 were both advertised —
  // so 0 is dominated whenever 2 is active.
  model.ObservePreference(0, util::PeeringId{2}, cands);
  const auto e = ComputeExpectation(inst, model, 0, cands,
                                    ExpectationParams{.d_reuse_km = 10000});
  ASSERT_TRUE(e.usable);
  EXPECT_EQ(e.candidate_count, 1u);
  EXPECT_DOUBLE_EQ(e.mean_rtt, 30.0);  // only session 2 remains
}

TEST(RoutingModelTest, DominationOnlyWhenWinnerActive) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  const util::PeeringId cands[] = {util::PeeringId{0}, util::PeeringId{2}};
  model.ObservePreference(0, util::PeeringId{2}, cands);
  // Advertise only session 0: session 2 is absent, so no domination applies.
  const util::PeeringId ad[] = {util::PeeringId{0}};
  const auto e = ComputeExpectation(inst, model, 0, ad, {});
  ASSERT_TRUE(e.usable);
  EXPECT_DOUBLE_EQ(e.mean_rtt, 20.0);
}

TEST(RoutingModelTest, NewObservationRetractsOpposite) {
  RoutingModel model{1};
  const util::PeeringId cands[] = {util::PeeringId{0}, util::PeeringId{1}};
  model.ObservePreference(0, util::PeeringId{0}, cands);
  EXPECT_TRUE(model.IsDominated(0, util::PeeringId{1}, cands));
  // Routing changed: now 1 is observed chosen.
  model.ObservePreference(0, util::PeeringId{1}, cands);
  EXPECT_TRUE(model.IsDominated(0, util::PeeringId{0}, cands));
  EXPECT_FALSE(model.IsDominated(0, util::PeeringId{1}, cands));
}

TEST(RoutingModelTest, MeasuredLatencyOverridesEstimate) {
  const auto inst = TinyInstance();
  RoutingModel model{2};
  model.ObserveLatency(0, util::PeeringId{0}, 15.0);
  const util::PeeringId ad[] = {util::PeeringId{0}};
  const auto e = ComputeExpectation(inst, model, 0, ad, {});
  EXPECT_DOUBLE_EQ(e.mean_rtt, 15.0);
}

TEST(RoutingModelTest, PreferenceCountTracksPairs) {
  RoutingModel model{2};
  EXPECT_EQ(model.PreferenceCount(), 0u);
  const util::PeeringId cands[] = {util::PeeringId{0}, util::PeeringId{1},
                                   util::PeeringId{2}};
  model.ObservePreference(1, util::PeeringId{0}, cands);
  EXPECT_EQ(model.PreferenceCount(), 2u);
  // Re-observing the same choice must not double count...
  model.ObservePreference(1, util::PeeringId{0}, cands);
  EXPECT_EQ(model.PreferenceCount(), 2u);
  // ...and a contradicting observation retracts the opposite pair, so the
  // running count stays consistent with the stored pairs: 0>1 is replaced by
  // 1>0 while 1>2 is added (0>2 remains).
  model.ObservePreference(1, util::PeeringId{1}, cands);
  EXPECT_EQ(model.PreferenceCount(), 3u);
}

TEST(RoutingModelTest, HasPreferencesPerUg) {
  RoutingModel model{3};
  EXPECT_FALSE(model.HasPreferences(0));
  const util::PeeringId cands[] = {util::PeeringId{4}, util::PeeringId{9}};
  model.ObservePreference(2, util::PeeringId{4}, cands);
  EXPECT_TRUE(model.HasPreferences(2));
  EXPECT_FALSE(model.HasPreferences(0));  // other UGs unaffected
  // Measured latencies alone don't constitute preferences.
  model.ObserveLatency(0, util::PeeringId{4}, 12.0);
  EXPECT_FALSE(model.HasPreferences(0));
}

// Drives the dense preference store and a pair-set reference through one
// seeded sequence of Observe* calls and compares every query after every
// call. The sequence mixes retractions and preference cycles, duplicate
// candidates, a chosen ingress missing from its candidate list, peering ids
// at the top of the 32-bit range, and more than 64 peerings for UG 0, so its
// bit-matrix rows span several words.
TEST(RoutingModelTest, DenseStoreMatchesPairSetOracle) {
  using Pair = std::pair<std::uint32_t, std::uint32_t>;
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  // UG 0 draws from all 75 ids, UG 1 from a few low ids (cycles come fast),
  // UG 2 from ids near 2^32-1.
  std::vector<std::vector<std::uint32_t>> pools(3);
  for (std::uint32_t v = 0; v < 70; ++v) pools[0].push_back(v);
  pools[2] = {kMax, kMax - 1, kMax - 2, 1u << 31, 5};
  for (std::uint32_t v : pools[2]) {
    if (v != 5) pools[0].push_back(v);
  }
  pools[1] = {0, 1, 2, 3, 64};

  RoutingModel model{3};
  std::vector<std::set<Pair>> pairs(3);
  std::vector<std::map<std::uint32_t, double>> rtts(3);
  std::size_t count = 0;
  std::size_t retractions = 0;
  std::size_t duplicates = 0;
  std::size_t chosen_absent = 0;
  bool saw_cycle = false;

  std::mt19937_64 rng{20231017};
  const auto draw = [&](const std::vector<std::uint32_t>& pool) {
    return pool[std::uniform_int_distribution<std::size_t>{
        0, pool.size() - 1}(rng)];
  };
  const auto chance = [&](double p) {
    return std::bernoulli_distribution{p}(rng);
  };

  for (int step = 0; step < 600; ++step) {
    const auto ug = static_cast<std::uint32_t>(
        std::uniform_int_distribution<int>{0, 2}(rng));
    const auto& pool = pools[ug];
    bool changed = false;
    bool want = false;
    std::vector<util::PeeringId> active;
    if (chance(0.65)) {
      const std::uint32_t chosen = draw(pool);
      const auto size = std::uniform_int_distribution<std::size_t>{0, 8}(rng);
      std::set<std::uint32_t> seen;
      bool has_chosen = false;
      for (std::size_t i = 0; i < size; ++i) {
        // Drawn with replacement: duplicates are part of the sequence.
        const std::uint32_t v = chance(0.7) && i == size / 2 ? chosen
                                                             : draw(pool);
        if (!seen.insert(v).second) ++duplicates;
        has_chosen = has_chosen || v == chosen;
        active.emplace_back(v);
      }
      if (!has_chosen && size > 0) ++chosen_absent;
      changed = model.ObservePreference(ug, util::PeeringId{chosen}, active);
      for (const util::PeeringId other : active) {
        if (other.value() == chosen) continue;
        if (pairs[ug].insert({chosen, other.value()}).second) {
          ++count;
          want = true;
        }
        if (pairs[ug].erase({other.value(), chosen}) != 0) {
          --count;
          ++retractions;
          want = true;
        }
      }
    } else {
      const std::uint32_t ingress = draw(pool);
      const double rtt = 10.0 + 0.5 * static_cast<double>(
          std::uniform_int_distribution<int>{0, 6}(rng));
      const double epsilon = chance(0.5) ? 0.0 : 1.0;
      changed = model.ObserveLatency(ug, util::PeeringId{ingress}, rtt,
                                     epsilon);
      const auto [it, inserted] = rtts[ug].try_emplace(ingress, rtt);
      if (inserted) {
        want = true;
      } else if (std::abs(it->second - rtt) > epsilon) {
        it->second = rtt;
        want = true;
      }
      for (int i = 0; i < 4; ++i) active.emplace_back(draw(pool));
    }
    ASSERT_EQ(changed, want) << "step " << step;
    ASSERT_EQ(model.PreferenceCount(), count) << "step " << step;

    for (std::uint32_t u = 0; u < 3; ++u) {
      ASSERT_EQ(model.HasPreferences(u), !pairs[u].empty()) << "step " << step;
      for (const std::uint32_t w : pools[0]) {
        const auto rtt = model.MeasuredRtt(u, util::PeeringId{w});
        const auto ref = rtts[u].find(w);
        ASSERT_EQ(rtt.has_value(), ref != rtts[u].end()) << "step " << step;
        if (rtt) {
          ASSERT_EQ(*rtt, ref->second) << "step " << step;
        }
        for (const std::uint32_t l : pools[0]) {
          ASSERT_EQ(model.Prefers(u, util::PeeringId{w}, util::PeeringId{l}),
                    pairs[u].contains({w, l}))
              << "step " << step << " ug " << u << " " << w << " > " << l;
        }
        bool dominated = false;
        for (const util::PeeringId other : active) {
          dominated = dominated || (other.value() != w &&
                                    pairs[u].contains({other.value(), w}));
        }
        ASSERT_EQ(model.IsDominated(u, util::PeeringId{w}, active), dominated)
            << "step " << step << " ug " << u << " candidate " << w;
      }
    }
    for (const auto& [a, b] : pairs[1]) {
      for (const std::uint32_t c : pools[1]) {
        saw_cycle = saw_cycle || (pairs[1].contains({b, c}) &&
                                  pairs[1].contains({c, a}));
      }
    }
  }

  // The sequence reached every case it is meant to cover.
  EXPECT_GT(retractions, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(chosen_absent, 0u);
  EXPECT_TRUE(saw_cycle);
  std::size_t known = 0;
  for (const std::uint32_t v : pools[0]) {
    if (model.PrefIndex(0, util::PeeringId{v}) != RoutingModel::kNoIndex) {
      ++known;
    }
  }
  EXPECT_GT(known, 64u);
  EXPECT_NE(model.PrefIndex(2, util::PeeringId{kMax}), RoutingModel::kNoIndex);
}

TEST(BuildInstance, MeasuredInstanceConsistentWithWorld) {
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  EXPECT_EQ(inst.UgCount(), w.deployment->ugs().size());
  EXPECT_EQ(inst.peering_count, w.deployment->peerings().size());
  EXPECT_GT(inst.total_weight, 0.0);
  // Options are exactly the compliant sets.
  for (const auto& ug : w.deployment->ugs()) {
    EXPECT_EQ(inst.options[ug.id.value()].size(),
              w.catalog->CompliantPeerings(ug.id).size());
  }
  // Measured RTTs are bounded below by the oracle's truth.
  for (const auto& opt : inst.options[0]) {
    EXPECT_GE(opt.rtt_ms,
              w.oracle->TrueRtt(util::UgId{0}, opt.peering).count());
  }
}

TEST(BuildInstance, InvertedIndexMatchesOptions) {
  const test::World& w = test::SharedWorld();
  const auto inst = test::MakeInstance(w);
  for (std::uint32_t g = 0; g < inst.peering_count; ++g) {
    for (std::uint32_t u : inst.ugs_with_peering[g]) {
      EXPECT_NE(inst.Option(u, util::PeeringId{g}), nullptr);
    }
  }
}

TEST(BuildInstance, EstimatedInstanceCoversSubset) {
  const test::World& w = test::SharedWorld();
  const measure::GeoTargetCatalog targets{*w.oracle, {}};
  util::Rng rng{77};
  const auto est = core::BuildEstimatedInstance(
      w.internet(), *w.deployment, *w.catalog, *w.resolver, *w.oracle, targets,
      rng, 450.0);
  const auto full = test::MakeInstance(w);
  for (std::uint32_t u = 0; u < est.UgCount(); ++u) {
    EXPECT_LE(est.options[u].size(), full.options[u].size());
  }
}

}  // namespace
}  // namespace painter::core
