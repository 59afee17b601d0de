// Unit tests for the PHY layer: MCS table, BER/ESNR math, delivery
// probability, airtime accounting, and rate control.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "phy/airtime.h"
#include "phy/esnr.h"
#include "phy/mcs.h"
#include "phy/rate_control.h"
#include "util/rng.h"
#include "util/units.h"

namespace wgtt::phy {
namespace {

constexpr std::array kModulations{Modulation::kBpsk, Modulation::kQpsk,
                                  Modulation::kQam16, Modulation::kQam64};

std::vector<double> flat_csi(double snr_db) {
  return std::vector<double>(static_cast<std::size_t>(kNumSubcarriers), snr_db);
}

/// Reference inverse of bit_error_rate: 48 bisection steps on log-SNR over
/// -30 .. +60 dB, clamped at both ends. snr_for_ber must agree with it.
double bisection_snr_for_ber(Modulation m, double ber) {
  const double target = std::min(ber, 0.5);
  double lo = 1e-3;
  double hi = 1e6;
  if (bit_error_rate(m, lo) <= target) return lo;
  if (bit_error_rate(m, hi) >= target) return hi;
  for (int it = 0; it < 48; ++it) {
    const double mid = std::sqrt(lo * hi);
    if (bit_error_rate(m, mid) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

/// Expected goodput (Mbit/s) of `mcs` on `csi`: one ESNR per MCS, the
/// quantity the ESNR rate selector maximizes.
double goodput_mbps(std::span<const double> csi, Mcs mcs) {
  const McsInfo& info = mcs_info(mcs);
  return info.data_rate_mbps *
         mpdu_delivery_probability(effective_snr_db(csi, info.modulation), mcs,
                                   1500);
}

TEST(McsTest, TableShape) {
  EXPECT_EQ(all_mcs().size(), 8u);
  // Rates strictly increase with index, as do sensitivity thresholds.
  for (int i = 1; i < kNumMcs; ++i) {
    EXPECT_GT(mcs_info(static_cast<Mcs>(i)).data_rate_mbps,
              mcs_info(static_cast<Mcs>(i - 1)).data_rate_mbps);
    EXPECT_GT(mcs_info(static_cast<Mcs>(i)).min_esnr_db,
              mcs_info(static_cast<Mcs>(i - 1)).min_esnr_db);
  }
  // Top rate matches the paper's "around 70 Mbit/s" (MCS7 short GI).
  EXPECT_NEAR(mcs_info(Mcs::kMcs7).data_rate_mbps, 72.2, 1e-9);
}

TEST(McsTest, HighestMcsForEsnr) {
  EXPECT_EQ(highest_mcs_for_esnr(-10.0), Mcs::kMcs0);
  EXPECT_EQ(highest_mcs_for_esnr(100.0), Mcs::kMcs7);
  EXPECT_EQ(highest_mcs_for_esnr(13.0), Mcs::kMcs3);
  EXPECT_EQ(highest_mcs_for_esnr(13.0, 5.0), Mcs::kMcs1);  // margin derates
}

TEST(McsTest, ModulationBits) {
  EXPECT_EQ(bits_per_symbol(Modulation::kBpsk), 1);
  EXPECT_EQ(bits_per_symbol(Modulation::kQam64), 6);
  EXPECT_EQ(to_string(Modulation::kQam16), "16-QAM");
}

TEST(BerTest, MonotoneDecreasingInSnr) {
  for (auto m : {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16,
                 Modulation::kQam64}) {
    double prev = bit_error_rate(m, 0.01);
    for (double snr = 0.1; snr < 1e5; snr *= 3.0) {
      const double cur = bit_error_rate(m, snr);
      EXPECT_LE(cur, prev + 1e-15);
      prev = cur;
    }
  }
}

TEST(BerTest, HigherOrderModulationWorseAtSameSnr) {
  const double snr = from_db(12.0);
  EXPECT_LT(bit_error_rate(Modulation::kBpsk, snr),
            bit_error_rate(Modulation::kQpsk, snr));
  EXPECT_LT(bit_error_rate(Modulation::kQpsk, snr),
            bit_error_rate(Modulation::kQam16, snr));
  EXPECT_LT(bit_error_rate(Modulation::kQam16, snr),
            bit_error_rate(Modulation::kQam64, snr));
}

TEST(BerTest, KnownBpskPoint) {
  // BPSK at 9.6 dB -> BER ~1e-5 (textbook).
  const double ber = bit_error_rate(Modulation::kBpsk, from_db(9.6));
  EXPECT_GT(ber, 1e-6);
  EXPECT_LT(ber, 1e-4);
}

TEST(SnrForBerTest, InverseOfBer) {
  for (auto m : {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16,
                 Modulation::kQam64}) {
    for (double target : {1e-2, 1e-3, 1e-5}) {
      const double snr = snr_for_ber(m, target);
      EXPECT_NEAR(bit_error_rate(m, snr), target, target * 0.05);
    }
  }
  EXPECT_THROW(snr_for_ber(Modulation::kBpsk, 0.0), std::invalid_argument);
}

TEST(SnrForBerTest, RejectsNonPositiveAndNan) {
  for (const Modulation m : kModulations) {
    EXPECT_THROW((void)snr_for_ber(m, -1e-9), std::invalid_argument);
    EXPECT_THROW(
        (void)snr_for_ber(m, std::numeric_limits<double>::quiet_NaN()),
        std::invalid_argument);
  }
}

TEST(SnrForBerTest, ClosedFormMatchesBisectionOracle) {
  // 10k log-spaced targets from the smallest subnormal up to 0.5.
  constexpr int kSteps = 10'000;
  const double dm = std::numeric_limits<double>::denorm_min();
  const double log_lo = std::log(dm);
  const double log_hi = std::log(0.5);
  for (const Modulation m : kModulations) {
    int clamped = 0;
    double worst_normal = 0.0;
    double residual[2][2] = {};  // [subnormal target][0 = closed, 1 = oracle]
    for (int i = 0; i <= kSteps; ++i) {
      double target = std::exp(log_lo + (log_hi - log_lo) * i / kSteps);
      if (i == 0) target = dm;
      if (i == kSteps) target = 0.5;
      const double want = bisection_snr_for_ber(m, target);
      const double got = snr_for_ber(m, target);
      ASSERT_TRUE(std::isfinite(got)) << "target " << target;
      if (want == 1e-3 || want == 1e6) {
        ++clamped;
        EXPECT_EQ(got, want) << "target " << target;
        continue;
      }
      // Below DBL_MIN, bit_error_rate only returns multiples of denorm_min,
      // so the oracle stops on the edge of a step of relative height
      // dm / target. There |d ln(BER) / d ln(g)| exceeds 700, so allow two
      // steps on top of the 1e-12 bound that holds for every normal target.
      const double tolerance = 1e-12 + 2.0 * (dm / target) / 700.0;
      const double diff = std::abs(got / want - 1.0);
      EXPECT_LE(diff, tolerance) << "target " << target;
      const int subnormal = target < std::numeric_limits<double>::min() ? 1 : 0;
      if (subnormal == 0) worst_normal = std::max(worst_normal, diff);
      for (const int k : {0, 1}) {
        const double g = k == 0 ? got : want;
        residual[subnormal][k] = std::max(
            residual[subnormal][k], std::abs(bit_error_rate(m, g) / target - 1.0));
      }
    }
    EXPECT_GT(clamped, 0);
    EXPECT_LE(worst_normal, 1e-12);
    // The closed form inverts bit_error_rate at least as tightly as the
    // oracle, over normal and over subnormal targets.
    EXPECT_LE(residual[0][0], residual[0][1]) << to_string(m);
    EXPECT_LE(residual[1][0], residual[1][1]) << to_string(m);
  }
}

TEST(EsnrTest, FlatChannelEsnrEqualsSnr) {
  // Stay below each modulation's BER floor (where the inverse map
  // saturates and ESNR reports its ceiling).
  for (double snr_db : {2.0, 6.0, 10.0}) {
    EXPECT_NEAR(effective_snr_db(flat_csi(snr_db), Modulation::kBpsk), snr_db, 0.1);
  }
  for (double snr_db : {5.0, 10.0, 13.0}) {
    EXPECT_NEAR(effective_snr_db(flat_csi(snr_db), Modulation::kQpsk), snr_db, 0.1);
  }
  for (double snr_db : {10.0, 15.0, 20.0}) {
    EXPECT_NEAR(effective_snr_db(flat_csi(snr_db), Modulation::kQam16), snr_db, 0.1);
  }
  for (double snr_db : {15.0, 20.0, 25.0}) {
    EXPECT_NEAR(effective_snr_db(flat_csi(snr_db), Modulation::kQam64), snr_db, 0.1);
  }
}

TEST(EsnrTest, FadedSubcarriersDragEsnrBelowMeanSnr) {
  // Half the subcarriers at 25 dB, half at 5 dB: mean SNR (dB of mean
  // power) ~22 dB, but ESNR is dominated by the faded half.
  std::vector<double> csi = flat_csi(25.0);
  for (std::size_t i = 0; i < csi.size(); i += 2) csi[i] = 5.0;
  const double esnr = effective_snr_db(csi, Modulation::kQam16);
  EXPECT_LT(esnr, 12.0);
  EXPECT_GT(esnr, 4.0);
}

TEST(EsnrTest, EmptyCsisThrow) {
  EXPECT_THROW(effective_snr_db({}, Modulation::kBpsk), std::invalid_argument);
}

TEST(EsnrTest, MetricIsMonotoneInUniformSnr) {
  double prev = -100.0;
  for (double snr_db = -5.0; snr_db <= 40.0; snr_db += 2.5) {
    const double e = esnr_metric_db(flat_csi(snr_db));
    EXPECT_GE(e, prev - 1e-9);
    prev = e;
  }
}

// The certified-skipping bound (DESIGN.md §14): effective_snr_db never
// exceeds esnr_ceiling_db of the best subcarrier, for every modulation, over
// random, all-equal and clustered CSI — including inputs where the 45 dB
// return fires below 45 dB and inputs entirely under the -30 dB floor.
TEST(EsnrCeilingTest, BoundsEffectiveSnr) {
  Rng rng(2010);
  int clamp_45_fired = 0;
  int below_floor = 0;
  std::vector<double> csi(static_cast<std::size_t>(kNumSubcarriers));
  for (int trial = 0; trial < 6000; ++trial) {
    const double top = rng.uniform(-60.0, 70.0);
    switch (trial % 3) {
      case 0:  // random spread below the best subcarrier
        for (double& v : csi) v = top - rng.uniform(0.0, 60.0);
        csi[rng.uniform_int(csi.size())] = top;
        break;
      case 1:  // all equal: ESNR meets the best subcarrier
        std::fill(csi.begin(), csi.end(), top);
        break;
      default:  // a cluster at the top, the rest far below
        for (double& v : csi) v = top - rng.uniform(20.0, 60.0);
        for (int k = 0; k < 1 + static_cast<int>(rng.uniform_int(8)); ++k) {
          csi[rng.uniform_int(csi.size())] = top - rng.uniform(0.0, 0.01);
        }
        csi[rng.uniform_int(csi.size())] = top;
        break;
    }
    const double best = *std::max_element(csi.begin(), csi.end());
    if (best < kEsnrFloorDb) ++below_floor;
    for (Modulation m : kModulations) {
      const double esnr = effective_snr_db(csi, m);
      ASSERT_LE(esnr, esnr_ceiling_db(best, m))
          << to_string(m) << " trial " << trial << " best " << best;
      if (esnr == 45.0 && best < 45.0) ++clamp_45_fired;
    }
  }
  EXPECT_GT(clamp_45_fired, 100);
  EXPECT_GT(below_floor, 100);
  // No ceiling means no bound.
  EXPECT_EQ(esnr_ceiling_db(std::numeric_limits<double>::infinity(),
                            Modulation::kQam64),
            std::numeric_limits<double>::infinity());
}

TEST(DeliveryProbabilityTest, MonotoneInEsnr) {
  for (const auto& info : all_mcs()) {
    double prev = -1.0;
    for (double esnr = -5.0; esnr <= 40.0; esnr += 1.0) {
      const double p = mpdu_delivery_probability(esnr, info.index, 1500);
      EXPECT_GE(p, prev - 1e-12);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      prev = p;
    }
  }
}

TEST(DeliveryProbabilityTest, SensitivityPointIsHalfForReferenceLength) {
  for (const auto& info : all_mcs()) {
    const double p = mpdu_delivery_probability(info.min_esnr_db, info.index, 1500);
    EXPECT_NEAR(p, 0.5, 1e-9);
  }
}

TEST(DeliveryProbabilityTest, LongerFramesFailMore) {
  const double esnr = mcs_info(Mcs::kMcs4).min_esnr_db + 1.0;
  const double p_short = mpdu_delivery_probability(esnr, Mcs::kMcs4, 200);
  const double p_long = mpdu_delivery_probability(esnr, Mcs::kMcs4, 1500);
  EXPECT_GT(p_short, p_long);
}

TEST(DeliveryProbabilityTest, HighSnrNearCertain) {
  const auto p = [](double snr_db) {
    return mpdu_delivery_probability(
        effective_snr_db(flat_csi(snr_db), Modulation::kQam64), Mcs::kMcs7,
        1500);
  };
  EXPECT_GT(p(35.0), 0.95);
  EXPECT_LT(p(0.0), 0.01);
}

TEST(ExpectedGoodputTest, PrefersRobustRateAtLowSnr) {
  // At 8 dB, MCS7's goodput collapses while MCS1's survives.
  const auto csi = flat_csi(8.0);
  EXPECT_GT(goodput_mbps(csi, Mcs::kMcs1), goodput_mbps(csi, Mcs::kMcs7));
}

TEST(AirtimeTest, PayloadRoundsToSymbols) {
  // 1 byte at MCS0 (7.2 Mbit/s): ~1.1 us -> rounds up to one 4 us symbol.
  const Time t = mpdu_duration(Mcs::kMcs0, 1);
  EXPECT_EQ(t, default_timings().ht_preamble + Time::us(4));
}

TEST(AirtimeTest, HigherMcsIsFaster) {
  const Time slow = ampdu_duration(Mcs::kMcs0, 10'000);
  const Time fast = ampdu_duration(Mcs::kMcs7, 10'000);
  EXPECT_LT(fast, slow);
}

TEST(AirtimeTest, AggregationAmortizesPreamble) {
  // 10 MPDUs aggregated cost far less than 10 singles.
  const Time aggregated = ampdu_duration(Mcs::kMcs7, 15'000);
  const Time singles = mpdu_duration(Mcs::kMcs7, 1'500) * 10;
  EXPECT_LT(aggregated, singles);
}

TEST(AirtimeTest, ControlFrameDurations) {
  EXPECT_GT(block_ack_duration(), Time::zero());
  EXPECT_LT(block_ack_duration(), Time::us(100));
  EXPECT_GT(beacon_duration(), ack_duration());
}

TEST(AirtimeTest, TxopComposition) {
  const Time t = txop_duration(Mcs::kMcs7, 1500, 0);
  const auto& tm = default_timings();
  EXPECT_EQ(t, tm.difs + ampdu_duration(Mcs::kMcs7, 1500) + tm.sifs +
                   block_ack_duration());
  EXPECT_EQ(txop_duration(Mcs::kMcs7, 1500, 3) - t, tm.slot * 3);
}

TEST(MinstrelTest, ConvergesToBestRate) {
  MinstrelLite::Config cfg;
  cfg.sample_fraction = 0.0;  // deterministic for the test
  MinstrelLite rc(cfg, Rng{3});
  // Feed feedback as if MCS4 succeeds fully and anything above fails.
  for (int round = 0; round < 300; ++round) {
    const Mcs pick = rc.select();
    const bool ok = static_cast<int>(pick) <= 4;
    rc.report(pick, 10, ok ? 10 : 0);
  }
  EXPECT_EQ(rc.select(), Mcs::kMcs4);
  EXPECT_GT(rc.success_estimate(Mcs::kMcs4), 0.9);
}

TEST(MinstrelTest, SamplesOtherRates) {
  MinstrelLite::Config cfg;
  cfg.sample_fraction = 0.5;
  MinstrelLite rc(cfg, Rng{4});
  bool saw_non_best = false;
  for (int i = 0; i < 200; ++i) {
    if (rc.select() != Mcs::kMcs7) {
      // With equal initial success the best-throughput pick is MCS7; any
      // other pick is a sample.
      saw_non_best = true;
    }
  }
  EXPECT_TRUE(saw_non_best);
}

TEST(EsnrSelectorTest, TracksCsi) {
  EsnrRateSelector rc(1500, /*margin_db=*/0.0);
  rc.observe_csi(flat_csi(35.0));
  EXPECT_EQ(rc.select(), Mcs::kMcs7);
  rc.observe_csi(flat_csi(10.0));
  const Mcs low = rc.select();
  EXPECT_LE(static_cast<int>(low), 2);
}

TEST(EsnrSelectorTest, MarginDerates) {
  EsnrRateSelector no_margin(1500, 0.0);
  EsnrRateSelector margin(1500, 6.0);
  no_margin.observe_csi(flat_csi(24.0));
  margin.observe_csi(flat_csi(24.0));
  EXPECT_LT(static_cast<int>(margin.select()),
            static_cast<int>(no_margin.select()));
}

TEST(EsnrSelectorTest, RetreatsAfterSustainedFailure) {
  EsnrRateSelector rc(1500, 0.0);
  rc.observe_csi(flat_csi(30.0));
  const Mcs initial = rc.select();
  for (int i = 0; i < 10; ++i) rc.report(rc.select(), 10, 0);
  EXPECT_LT(static_cast<int>(rc.select()), static_cast<int>(initial));
}

TEST(EsnrSelectorTest, PicksFirstGoodputArgmaxBitwise) {
  // Random CSI around a random level with random frequency selectivity,
  // limited to -10 .. 45 dB. After observe_csi the selector must pick
  // exactly the first argmax of the per-MCS goodput loop.
  Rng rng{2024};
  for (const double margin : {0.0, 2.5}) {
    EsnrRateSelector rc(1500, margin);
    std::array<int, kNumMcs> picks{};
    std::vector<double> csi(static_cast<std::size_t>(kNumSubcarriers));
    std::vector<double> derated(csi.size());
    for (int trial = 0; trial < 10'000; ++trial) {
      const double level = rng.uniform(-10.0, 45.0);
      const double spread = rng.uniform(0.0, 12.0);
      for (std::size_t i = 0; i < csi.size(); ++i) {
        csi[i] = std::clamp(rng.normal(level, spread), -10.0, 45.0);
        derated[i] = csi[i] - margin;
      }
      rc.observe_csi(csi);
      double best_goodput = -1.0;
      Mcs best = Mcs::kMcs0;
      for (const auto& info : all_mcs()) {
        const double g = goodput_mbps(derated, info.index);
        if (g > best_goodput) {
          best_goodput = g;
          best = info.index;
        }
      }
      ASSERT_EQ(rc.select(), best) << "margin " << margin << " trial " << trial;
      ++picks[static_cast<std::size_t>(best)];
    }
    for (int mcs = 0; mcs < kNumMcs; ++mcs) {
      EXPECT_GT(picks[static_cast<std::size_t>(mcs)], 0) << "MCS " << mcs;
    }
  }
}

// Parameterized property: for every MCS, delivery probability at its
// sensitivity + 4 dB exceeds 0.9, and at sensitivity - 4 dB is below 0.1
// (the logistic waterfall is centred and steep).
class WaterfallProperty : public ::testing::TestWithParam<int> {};

TEST_P(WaterfallProperty, SteepAroundSensitivity) {
  const Mcs mcs = static_cast<Mcs>(GetParam());
  const double sens = mcs_info(mcs).min_esnr_db;
  EXPECT_GT(mpdu_delivery_probability(sens + 4.0, mcs, 1500), 0.9);
  EXPECT_LT(mpdu_delivery_probability(sens - 4.0, mcs, 1500), 0.1);
}

INSTANTIATE_TEST_SUITE_P(AllMcs, WaterfallProperty, ::testing::Range(0, kNumMcs));

}  // namespace
}  // namespace wgtt::phy
