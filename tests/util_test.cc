#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "util/ids.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace painter::util {
namespace {

TEST(StrongId, DefaultIsInvalid) {
  AsId id;
  EXPECT_FALSE(id.valid());
}

TEST(StrongId, ValueRoundTrip) {
  AsId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(AsId{1}, AsId{2});
  EXPECT_EQ(AsId{7}, AsId{7});
  EXPECT_NE(AsId{7}, AsId{8});
}

TEST(StrongId, DistinctTypesDoNotMix) {
  // Compile-time property; hashing works per type.
  std::unordered_set<AsId> as_set{AsId{1}, AsId{2}, AsId{1}};
  EXPECT_EQ(as_set.size(), 2u);
  std::unordered_set<PopId> pop_set{PopId{1}};
  EXPECT_EQ(pop_set.size(), 1u);
}

TEST(Units, MillisArithmetic) {
  Millis a{10.0};
  Millis b{2.5};
  EXPECT_DOUBLE_EQ((a + b).count(), 12.5);
  EXPECT_DOUBLE_EQ((a - b).count(), 7.5);
  EXPECT_DOUBLE_EQ((a * 2.0).count(), 20.0);
  EXPECT_DOUBLE_EQ((a / 2.0).count(), 5.0);
  EXPECT_LT(b, a);
}

TEST(Units, FiberLatencyMatchesSpeedOfLightInFiber) {
  // 200 km of fiber is 1 ms one-way, 2 ms RTT.
  EXPECT_DOUBLE_EQ(FiberLatency(Km{200.0}).count(), 1.0);
  EXPECT_DOUBLE_EQ(FiberRtt(Km{200.0}).count(), 2.0);
}

TEST(Rng, Deterministic) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform01(), b.Uniform01());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Uniform01() != b.Uniform01()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformIntInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, WeightedIndexRespectsZeroWeights) {
  Rng rng{7};
  const double w[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.WeightedIndex(w), 1u);
  }
}

TEST(Rng, WeightedIndexAllZeroReturnsSize) {
  Rng rng{7};
  const double w[] = {0.0, 0.0};
  EXPECT_EQ(rng.WeightedIndex(w), 2u);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng{11};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(5.0, 1.5), 5.0);
  }
}

// Rng's methods over std::mt19937_64: the bit-identity reference for the
// in-tree Mt19937_64 engine behind Rng.
class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed) {}
  StdRng Fork() { return StdRng{engine_()}; }
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }
  double Uniform01() { return Uniform(0.0, 1.0); }
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }
  std::size_t Index(std::size_t n) {
    return static_cast<std::size_t>(
        UniformInt(0, static_cast<std::int64_t>(n) - 1));
  }
  bool Bernoulli(double p) { return std::bernoulli_distribution{p}(engine_); }
  double Exponential(double rate) {
    return std::exponential_distribution<double>{rate}(engine_);
  }
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
  }
  double Pareto(double x_m, double alpha) {
    const double u = Uniform01();
    return x_m / std::pow(1.0 - u, 1.0 / alpha);
  }
  std::size_t WeightedIndex(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) return weights.size();
    double x = Uniform(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x <= 0.0) return i;
    }
    return weights.size() - 1;
  }
  template <typename T>
  void Shuffle(std::span<T> items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

 private:
  std::mt19937_64 engine_;
};

// 0, ~0, std's default seed, small integers, and 500 well-mixed seeds.
std::vector<std::uint64_t> EquivalenceSeeds() {
  std::vector<std::uint64_t> seeds = {0, ~0ULL, 5489, 1, 2, 3, 42,
                                      0x8000000000000000ULL};
  std::mt19937_64 gen{20231010};
  for (int i = 0; i < 500; ++i) seeds.push_back(gen());
  return seeds;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Mt19937_64, RawOutputMatchesStdAtTwistBoundaries) {
  // Draw counts straddle the lazy seeding horizon (output k of the first
  // block reads seed word k + 156) and the first and second block wraps.
  const int counts[] = {1, 2, 155, 156, 157, 311, 312, 313, 700, 1000};
  for (const std::uint64_t seed : EquivalenceSeeds()) {
    for (const int count : counts) {
      Mt19937_64 lazy{seed};
      std::mt19937_64 ref{seed};
      for (int i = 0; i < count; ++i) {
        const std::uint64_t want = ref();
        const std::uint64_t got = lazy();
        ASSERT_EQ(got, want) << "seed=" << seed << " count=" << count
                             << " draw=" << i;
      }
    }
  }
}

TEST(Mt19937_64, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Mt19937_64>);
  EXPECT_EQ(Mt19937_64::min(), std::mt19937_64::min());
  EXPECT_EQ(Mt19937_64::max(), std::mt19937_64::max());
  // No bigger than the std engine it replaces.
  EXPECT_LE(sizeof(Rng), sizeof(std::mt19937_64) + 2 * sizeof(std::size_t));
}

TEST(Mt19937_64, CopyMidStreamContinuesIdentically) {
  for (const std::uint64_t seed : {0ULL, ~0ULL, 5489ULL, 0x9e3779b97f4a7c15ULL}) {
    for (int k = 0; k < 156; ++k) {
      Mt19937_64 lazy{seed};
      std::mt19937_64 ref{seed};
      for (int i = 0; i < k; ++i) (void)lazy();
      ref.discard(static_cast<unsigned long long>(k));
      Mt19937_64 copy = lazy;
      for (int i = 0; i < 700; ++i) {
        const std::uint64_t want = ref();
        ASSERT_EQ(copy(), want) << "seed=" << seed << " k=" << k << " i=" << i;
        ASSERT_EQ(lazy(), want) << "seed=" << seed << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(Rng, CopyMidStreamContinuesIdentically) {
  for (int k = 0; k < 156; ++k) {
    Rng rng{static_cast<std::uint64_t>(k) * 7919};
    StdRng ref{static_cast<std::uint64_t>(k) * 7919};
    for (int i = 0; i < k; ++i) {
      ASSERT_EQ(Bits(rng.Uniform01()), Bits(ref.Uniform01()));
    }
    Rng copy = rng;
    for (int i = 0; i < 400; ++i) {
      const double want = ref.Uniform01();
      ASSERT_EQ(Bits(copy.Uniform01()), Bits(want)) << "k=" << k;
      ASSERT_EQ(Bits(rng.Uniform01()), Bits(want)) << "k=" << k;
    }
  }
}

TEST(Rng, EveryMethodMatchesStdReference) {
  const double weights[] = {0.5, 0.0, 2.0, 1.0, 0.25};
  for (const std::uint64_t seed : EquivalenceSeeds()) {
    Rng rng{seed};
    StdRng ref{seed};
    // Several rounds, so the sequence crosses the first block boundary.
    for (int round = 0; round < 12; ++round) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " round=" << round);
      ASSERT_EQ(Bits(rng.Uniform(-3.0, 7.0)), Bits(ref.Uniform(-3.0, 7.0)));
      ASSERT_EQ(Bits(rng.Uniform01()), Bits(ref.Uniform01()));
      ASSERT_EQ(rng.UniformInt(-5, 1'000'000'000'000),
                ref.UniformInt(-5, 1'000'000'000'000));
      ASSERT_EQ(rng.UniformInt(0, 6), ref.UniformInt(0, 6));
      ASSERT_EQ(rng.Index(17), ref.Index(17));
      ASSERT_EQ(rng.Bernoulli(0.3), ref.Bernoulli(0.3));
      ASSERT_EQ(Bits(rng.Exponential(0.7)), Bits(ref.Exponential(0.7)));
      ASSERT_EQ(Bits(rng.Normal(1.0, 2.0)), Bits(ref.Normal(1.0, 2.0)));
      ASSERT_EQ(Bits(rng.LogNormal(0.5, 0.3)), Bits(ref.LogNormal(0.5, 0.3)));
      ASSERT_EQ(Bits(rng.Pareto(2.0, 1.5)), Bits(ref.Pareto(2.0, 1.5)));
      ASSERT_EQ(rng.WeightedIndex(weights), ref.WeightedIndex(weights));

      std::vector<int> a(20);
      std::iota(a.begin(), a.end(), 0);
      std::vector<int> b = a;
      rng.Shuffle(std::span<int>{a});
      ref.Shuffle(std::span<int>{b});
      ASSERT_EQ(a, b);

      Rng child = rng.Fork();
      StdRng ref_child = ref.Fork();
      for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(Bits(child.Normal(0.0, 1.0)), Bits(ref_child.Normal(0.0, 1.0)));
      }
    }
  }
}

TEST(Stats, MeanAndVariance) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_NEAR(Variance(xs), 5.0 / 3.0, 1e-12);
}

TEST(Stats, EmptyMeanIsZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(Stats, WeightedMean) {
  const double xs[] = {1.0, 10.0};
  const double ws[] = {9.0, 1.0};
  EXPECT_NEAR(WeightedMean(xs, ws), 1.9, 1e-12);
}

TEST(Stats, WeightedMeanSizeMismatchThrows) {
  const double xs[] = {1.0};
  const double ws[] = {1.0, 2.0};
  EXPECT_THROW((void)WeightedMean(xs, ws), std::invalid_argument);
}

TEST(Stats, PercentileInterpolates) {
  const double xs[] = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 10.0);
}

TEST(Stats, PercentileOutOfRangeThrows) {
  const double xs[] = {1.0};
  EXPECT_THROW((void)Percentile(xs, 101.0), std::invalid_argument);
}

TEST(EmpiricalCdfTest, FractionAndQuantile) {
  EmpiricalCdf cdf;
  cdf.Add(1.0);
  cdf.Add(2.0);
  cdf.Add(3.0);
  cdf.Add(4.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 2.0);
}

TEST(EmpiricalCdfTest, Weighted) {
  EmpiricalCdf cdf;
  cdf.Add(1.0, 3.0);
  cdf.Add(10.0, 1.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.75);
}

TEST(EmpiricalCdfTest, NegativeWeightThrows) {
  EmpiricalCdf cdf;
  EXPECT_THROW(cdf.Add(1.0, -1.0), std::invalid_argument);
}

TEST(EmpiricalCdfTest, SeriesCoversRange) {
  EmpiricalCdf cdf;
  for (int i = 0; i <= 10; ++i) cdf.Add(i);
  const auto series = cdf.Series(5);
  ASSERT_EQ(series.size(), 5u);
  EXPECT_DOUBLE_EQ(series.front().first, 0.0);
  EXPECT_DOUBLE_EQ(series.back().first, 10.0);
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(EmpiricalCdfTest, WeightedQuantile) {
  // Quantile is the first sample whose cumulative weight reaches q * total:
  // with (1, w=1) and (2, w=3), a quarter of the mass sits at 1.
  EmpiricalCdf cdf;
  cdf.Add(2.0, 3.0);
  cdf.Add(1.0, 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.26), 2.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 2.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);  // smallest sample
}

TEST(EmpiricalCdfTest, QuantileOutOfRangeThrows) {
  EmpiricalCdf cdf;
  cdf.Add(1.0);
  EXPECT_THROW((void)cdf.Quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)cdf.Quantile(1.1), std::invalid_argument);
}

TEST(EmpiricalCdfTest, SeriesEndpointsAreMinAndMax) {
  EmpiricalCdf cdf;
  cdf.Add(2.0);
  cdf.Add(4.0);
  cdf.Add(6.0);
  cdf.Add(8.0);
  const auto series = cdf.Series(4);
  ASSERT_EQ(series.size(), 4u);
  // First point sits at the minimum with that sample's own mass...
  EXPECT_DOUBLE_EQ(series.front().first, 2.0);
  EXPECT_DOUBLE_EQ(series.front().second, 0.25);
  // ...and the last point closes the CDF at (max, 1.0).
  EXPECT_DOUBLE_EQ(series.back().first, 8.0);
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(EmpiricalCdfTest, SingleSample) {
  EmpiricalCdf cdf;
  cdf.Add(5.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(5.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(4.9), 0.0);
  const auto series = cdf.Series(10);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series.front().first, 5.0);
  EXPECT_DOUBLE_EQ(series.front().second, 1.0);
}

TEST(EmpiricalCdfTest, AllEqualSamplesCollapseToOnePoint) {
  EmpiricalCdf cdf;
  for (int i = 0; i < 7; ++i) cdf.Add(3.0);
  const auto series = cdf.Series(5);
  ASSERT_EQ(series.size(), 1u);  // lo == hi: a single (value, 1.0) point
  EXPECT_DOUBLE_EQ(series.front().first, 3.0);
  EXPECT_DOUBLE_EQ(series.front().second, 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 3.0);
}

TEST(EmpiricalCdfTest, EmptyCdf) {
  const EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 0.0);
  EXPECT_TRUE(cdf.Series(5).empty());
}

TEST(Accumulator, TracksMinMeanMax) {
  Accumulator acc;
  acc.Add(2.0);
  acc.Add(4.0);
  acc.Add(9.0);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
}

TEST(TableTest, PrintsAlignedRows) {
  Table t{{"a", "long_header"}};
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.Print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("| 1"), std::string::npos);
}

TEST(TableTest, WrongCellCountThrows) {
  Table t{{"a", "b"}};
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
}

TEST(TableTest, NumAndPctFormat) {
  EXPECT_EQ(Table::Num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::Pct(0.5, 1), "50.0%");
}

TEST(SweepTest, MismatchedSeriesThrows) {
  std::ostringstream os;
  EXPECT_THROW(
      PrintSweep(os, "x", {1.0, 2.0}, {Series{"s", {1.0}}}),
      std::invalid_argument);
}

}  // namespace
}  // namespace painter::util
