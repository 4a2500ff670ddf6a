#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>

#include "measure/geolocation.h"
#include "tests/world_fixture.h"

namespace painter::measure {
namespace {

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override { w_ = test::MakeWorld(); }
  util::UgId Ug0() const { return w_.deployment->ugs().front().id; }
  util::PeeringId Sess0() const { return w_.deployment->peerings().front().id; }
  test::World w_;
};

TEST_F(OracleTest, TrueRttDeterministic) {
  const auto a = w_.oracle->TrueRtt(Ug0(), Sess0());
  const auto b = w_.oracle->TrueRtt(Ug0(), Sess0());
  EXPECT_DOUBLE_EQ(a.count(), b.count());
}

TEST_F(OracleTest, TrueRttAboveFiberFloor) {
  // Ground truth must never beat the straight-fiber RTT plus overheads.
  const auto& metros = w_.internet().metros;
  for (const auto& ug : w_.deployment->ugs()) {
    for (const auto& sess : w_.deployment->peerings()) {
      const double d =
          topo::Distance(metros[ug.metro.value()].location,
                         metros[w_.deployment->pop(sess.pop).metro.value()]
                             .location)
              .count();
      const double floor = util::FiberRtt(util::Km{d}).count();
      EXPECT_GE(w_.oracle->TrueRtt(ug.id, sess.id).count(), floor);
    }
    if (ug.id.value() > 20) break;  // bounded runtime
  }
}

TEST_F(OracleTest, ProbeNeverBelowTruth) {
  util::Rng rng{5};
  const double truth = w_.oracle->TrueRtt(Ug0(), Sess0()).count();
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(w_.oracle->ProbeOnce(Ug0(), Sess0(), rng).count(), truth);
  }
}

TEST_F(OracleTest, MinOfManyPingsApproachesTruth) {
  util::Rng rng{5};
  const double truth = w_.oracle->TrueRtt(Ug0(), Sess0()).count();
  const double measured =
      w_.oracle->MeasureMin(Ug0(), Sess0(), rng, 31).count();
  EXPECT_GE(measured, truth);
  EXPECT_LE(measured - truth, 2.0);  // min of 31 exponential(1.5ms) draws
}

// Finds a (ug, peering, day) inside a degraded regime: its true RTT that day
// exceeds the day-0 baseline.
struct DegradedPoint {
  util::UgId ug;
  util::PeeringId peering;
  int day = 0;
};

std::optional<DegradedPoint> FindDegradedPoint(const LatencyOracle& oracle) {
  for (const auto& ug : oracle.deployment().ugs()) {
    for (const auto& sess : oracle.deployment().peerings()) {
      const double base = oracle.TrueRtt(ug.id, sess.id).count();
      for (int day = 1; day <= 30; ++day) {
        if (oracle.TrueRttOnDay(ug.id, sess.id, day).count() > base) {
          return DegradedPoint{ug.id, sess.id, day};
        }
      }
    }
  }
  return std::nullopt;
}

TEST_F(OracleTest, MeasureMinBitIdenticalToProbeOnceFold) {
  const auto degraded = FindDegradedPoint(*w_.oracle);
  ASSERT_TRUE(degraded.has_value());
  const DegradedPoint points[] = {{Ug0(), Sess0(), 0}, *degraded};
  for (const DegradedPoint& pt : points) {
    for (const int n : {1, 7, 31}) {
      util::Rng fast{MixSeed(77, static_cast<std::uint64_t>(n))};
      util::Rng slow{MixSeed(77, static_cast<std::uint64_t>(n))};
      const double measured =
          w_.oracle->MeasureMin(pt.ug, pt.peering, fast, n, pt.day).count();
      double folded =
          w_.oracle->ProbeOnce(pt.ug, pt.peering, slow, pt.day).count();
      for (int i = 1; i < n; ++i) {
        folded = std::min(
            folded,
            w_.oracle->ProbeOnce(pt.ug, pt.peering, slow, pt.day).count());
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(measured),
                std::bit_cast<std::uint64_t>(folded))
          << "n=" << n << " day=" << pt.day;
      // Both paths consumed exactly the same draws.
      EXPECT_EQ(fast.UniformInt(0, std::numeric_limits<std::int64_t>::max()),
                slow.UniformInt(0, std::numeric_limits<std::int64_t>::max()))
          << "n=" << n << " day=" << pt.day;
    }
  }
  // The degraded day really is degraded, so the fold above covered a
  // regime-shifted truth.
  EXPECT_GT(w_.oracle->TrueRttOnDay(degraded->ug, degraded->peering,
                                    degraded->day)
                .count(),
            w_.oracle->TrueRtt(degraded->ug, degraded->peering).count());
}

TEST_F(OracleTest, MeasureMinRejectsNonPositiveCount) {
  util::Rng rng{5};
  EXPECT_THROW((void)w_.oracle->MeasureMin(Ug0(), Sess0(), rng, 0),
               std::invalid_argument);
  EXPECT_THROW((void)w_.oracle->MeasureMin(Ug0(), Sess0(), rng, -3),
               std::invalid_argument);
}

TEST_F(OracleTest, BuildMeasuredInstanceRejectsNonPositivePingCount) {
  util::Rng rng{21};
  for (const int bad : {0, -1}) {
    EXPECT_THROW((void)core::BuildMeasuredInstance(
                     w_.internet(), *w_.deployment, *w_.catalog, *w_.resolver,
                     *w_.oracle, rng, bad),
                 std::invalid_argument);
  }
}

TEST_F(OracleTest, Day0MatchesBaseline) {
  EXPECT_DOUBLE_EQ(w_.oracle->TrueRttOnDay(Ug0(), Sess0(), 0).count(),
                   w_.oracle->TrueRtt(Ug0(), Sess0()).count());
}

TEST_F(OracleTest, RegimeShiftsOnlyInflate) {
  for (int day = 1; day <= 30; ++day) {
    for (std::uint32_t s = 0; s < 5; ++s) {
      const util::PeeringId sess{s};
      EXPECT_GE(w_.oracle->TrueRttOnDay(Ug0(), sess, day).count(),
                w_.oracle->TrueRtt(Ug0(), sess).count() - 1e-9);
    }
  }
}

TEST_F(OracleTest, SomeRegimeShiftOccursOverAMonth) {
  // With 4%/day shift probability across many (ug, session) pairs, some day
  // must show inflation.
  bool any = false;
  for (const auto& ug : w_.deployment->ugs()) {
    for (std::uint32_t s = 0; s < 10 && !any; ++s) {
      const util::PeeringId sess{s};
      const double base = w_.oracle->TrueRtt(ug.id, sess).count();
      for (int day = 1; day <= 25; ++day) {
        if (w_.oracle->TrueRttOnDay(ug.id, sess, day).count() > base * 1.2) {
          any = true;
          break;
        }
      }
    }
    if (any || ug.id.value() > 40) break;
  }
  EXPECT_TRUE(any);
}

TEST_F(OracleTest, TransitSessionsInflateMoreOnAverage) {
  // The config gives transit/tier-1 entry ASes extra inflation; verify the
  // aggregate ordering holds (this is what makes PAINTER's learning matter).
  double transit_sum = 0.0, transit_n = 0.0, other_sum = 0.0, other_n = 0.0;
  const auto& metros = w_.internet().metros;
  for (const auto& ug : w_.deployment->ugs()) {
    if (ug.id.value() > 60) break;
    for (const auto& sess : w_.deployment->peerings()) {
      const double d =
          topo::Distance(metros[ug.metro.value()].location,
                         metros[w_.deployment->pop(sess.pop).metro.value()]
                             .location)
              .count();
      if (d < 500.0) continue;  // inflation factor meaningless at zero range
      const double fiber = util::FiberRtt(util::Km{d}).count();
      const double excess =
          (w_.oracle->TrueRtt(ug.id, sess.id).count()) / fiber;
      const auto tier = w_.internet().graph.info(sess.peer).tier;
      if (tier == topo::AsTier::kTier1 || tier == topo::AsTier::kTransit) {
        transit_sum += excess;
        transit_n += 1;
      } else {
        other_sum += excess;
        other_n += 1;
      }
    }
  }
  ASSERT_GT(transit_n, 0.0);
  ASSERT_GT(other_n, 0.0);
  EXPECT_GT(transit_sum / transit_n, other_sum / other_n);
}

class GeoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    w_ = test::MakeWorld();
    targets_ = std::make_unique<GeoTargetCatalog>(*w_.oracle,
                                                  GeoTargetConfig{});
  }
  test::World w_;
  std::unique_ptr<GeoTargetCatalog> targets_;
};

TEST_F(GeoTest, SomeTargetsMissingSomePrecise) {
  std::size_t missing = 0, precise = 0, coarse = 0;
  for (const auto& sess : w_.deployment->peerings()) {
    const auto t = targets_->TargetFor(sess.id);
    if (!t.has_value()) {
      ++missing;
    } else if (t->uncertainty_km == 0.0) {
      ++precise;
    } else {
      ++coarse;
    }
  }
  EXPECT_GT(missing, 0u);
  EXPECT_GT(precise, 0u);
  EXPECT_GT(coarse, 0u);
}

TEST_F(GeoTest, EstimateRespectsUncertaintyBound) {
  for (const auto& sess : w_.deployment->peerings()) {
    const auto t = targets_->TargetFor(sess.id);
    const auto est = targets_->EstimateRtt(w_.deployment->ugs().front().id,
                                           sess.id, 100.0);
    if (!t.has_value() || t->uncertainty_km > 100.0) {
      EXPECT_FALSE(est.has_value());
    } else {
      EXPECT_TRUE(est.has_value());
    }
  }
}

TEST_F(GeoTest, PreciseTargetsEstimateAccurately) {
  const auto ug = w_.deployment->ugs().front().id;
  for (const auto& sess : w_.deployment->peerings()) {
    const auto t = targets_->TargetFor(sess.id);
    if (!t.has_value() || t->uncertainty_km > 1.0) continue;
    const auto est = targets_->EstimateRtt(ug, sess.id, 450.0);
    ASSERT_TRUE(est.has_value());
    EXPECT_NEAR(est->count(), w_.oracle->TrueRtt(ug, sess.id).count(), 0.6);
  }
}

TEST_F(GeoTest, EstimateErrorBoundedByDisplacement) {
  const auto ug = w_.deployment->ugs().front().id;
  for (const auto& sess : w_.deployment->peerings()) {
    const auto t = targets_->TargetFor(sess.id);
    if (!t.has_value()) continue;
    const auto est = targets_->EstimateRtt(ug, sess.id, 1e9);
    ASSERT_TRUE(est.has_value());
    // Error is bounded by the detour the displacement implies (the estimator
    // applies a detour factor of 1.8 over the straight-line fiber RTT).
    const double err =
        std::abs(est->count() - w_.oracle->TrueRtt(ug, sess.id).count());
    EXPECT_LE(err,
              1.8 * util::FiberRtt(util::Km{t->uncertainty_km}).count() + 1e-9);
  }
}

TEST(MixSeedTest, OrderSensitive) {
  EXPECT_NE(MixSeed(1, 2), MixSeed(2, 1));
  EXPECT_EQ(MixSeed(1, 2, 3), MixSeed(1, 2, 3));
}

}  // namespace
}  // namespace painter::measure
