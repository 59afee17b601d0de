// Unit tests for util: units, RNG, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace wgtt {
namespace {

TEST(TimeTest, ConstructorsAgree) {
  EXPECT_EQ(Time::us(1).count_ns(), 1'000);
  EXPECT_EQ(Time::ms(1).count_ns(), 1'000'000);
  EXPECT_EQ(Time::sec(1).count_ns(), 1'000'000'000);
  EXPECT_EQ(Time::seconds(1.5).count_ns(), 1'500'000'000);
  EXPECT_EQ(Time::millis(2.5).count_ns(), 2'500'000);
  EXPECT_EQ(Time::micros(0.5).count_ns(), 500);
}

TEST(TimeTest, Arithmetic) {
  const Time a = Time::ms(3);
  const Time b = Time::ms(1);
  EXPECT_EQ((a + b).count_ns(), Time::ms(4).count_ns());
  EXPECT_EQ((a - b).count_ns(), Time::ms(2).count_ns());
  EXPECT_EQ((a * 3).count_ns(), Time::ms(9).count_ns());
  EXPECT_EQ(a / b, 3);
  Time c = a;
  c += b;
  EXPECT_EQ(c, Time::ms(4));
  c -= Time::ms(2);
  EXPECT_EQ(c, Time::ms(2));
}

TEST(TimeTest, ComparisonAndConversion) {
  EXPECT_LT(Time::us(999), Time::ms(1));
  EXPECT_GT(Time::sec(1), Time::ms(999));
  EXPECT_DOUBLE_EQ(Time::ms(1500).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Time::us(1500).to_millis(), 1.5);
  EXPECT_DOUBLE_EQ(Time::ns(1500).to_micros(), 1.5);
  EXPECT_LT(Time::seconds(-1.0), Time::zero());
}

TEST(UnitsTest, DecibelRoundTrip) {
  for (double db : {-20.0, -3.0, 0.0, 3.0, 10.0, 30.0}) {
    EXPECT_NEAR(to_db(from_db(db)), db, 1e-9);
  }
  EXPECT_NEAR(from_db(3.0), 1.995, 0.01);
  EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(mw_to_dbm(100.0), 20.0, 1e-9);
}

TEST(UnitsTest, SpeedConversion) {
  EXPECT_NEAR(mph_to_mps(25.0), 11.176, 1e-3);
  EXPECT_NEAR(mps_to_mph(mph_to_mps(15.0)), 15.0, 1e-9);
}

TEST(UnitsTest, WavelengthIsTwelveCentimetres) {
  EXPECT_NEAR(kWavelength, 0.1218, 5e-4);  // channel 11 @ 2.462 GHz
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1'000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng r(9);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70'000; ++i) {
    const auto v = r.uniform_int(7);
    ASSERT_LT(v, 7u);
    ++counts[static_cast<std::size_t>(v)];
  }
  // Roughly uniform: each bucket within 10% of expectation.
  for (int c : counts) EXPECT_NEAR(c, 10'000, 1'000);
}

TEST(RngTest, NormalMoments) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 100'000; ++i) s.add(r.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 100'000; ++i) s.add(r.exponential(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);
  EXPECT_GE(s.min(), 0.0);
}

TEST(RngTest, ChanceEdgeCases) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    EXPECT_FALSE(r.chance(-0.5));
    EXPECT_TRUE(r.chance(1.5));
  }
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(hits, 30'000, 1'000);
}

TEST(RngTest, ForkIndependence) {
  Rng root(21);
  Rng child = root.fork();
  // The child must not replay the parent stream.
  Rng parent_copy(21);
  parent_copy.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == root.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RunningStatsTest, Basic) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(EwmaTest, FirstSampleInitializes) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  e.add(10.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  e.add(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
  e.reset();
  EXPECT_FALSE(e.initialized());
}

TEST(StatsTest, MedianOddEven) {
  std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(StatsTest, LowerMedianMatchesPaperFormula) {
  // Paper: e_{floor(L/2)} with 1-based indexing of the sorted window.
  std::vector<double> l1{5.0};
  EXPECT_DOUBLE_EQ(lower_median(l1), 5.0);
  std::vector<double> l2{7.0, 3.0};
  EXPECT_DOUBLE_EQ(lower_median(l2), 3.0);  // floor(2/2)=1 -> 1st sorted
  std::vector<double> l4{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(lower_median(l4), 2.0);
  std::vector<double> l5{5.0, 4.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(lower_median(l5), 3.0);
}

TEST(StatsTest, Percentile) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
  EXPECT_THROW(percentile(xs, 1.5), std::invalid_argument);
}

TEST(StatsTest, EmpiricalCdf) {
  std::vector<double> xs{3.0, 1.0, 2.0};
  const auto cdf = empirical_cdf(xs);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_NEAR(cdf[0].fraction, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3.0);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

// Property sweep: lower_median of a window of identical values is that
// value, and is always a member of the input.
class LowerMedianProperty : public ::testing::TestWithParam<int> {};

TEST_P(LowerMedianProperty, AlwaysAMember) {
  Rng r(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> xs;
  const int n = 1 + static_cast<int>(r.uniform_int(20));
  for (int i = 0; i < n; ++i) xs.push_back(r.uniform(-50.0, 50.0));
  const double m = lower_median(xs);
  EXPECT_NE(std::find(xs.begin(), xs.end(), m), xs.end());
  // Lower median is <= upper median.
  EXPECT_LE(m, median(xs) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerMedianProperty, ::testing::Range(0, 25));

}  // namespace
}  // namespace wgtt
