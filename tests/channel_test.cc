// Unit tests for the channel substrate: path loss, shadowing field, antenna
// pattern, fading statistics, and the composite LinkChannel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <numbers>
#include <vector>

#include "channel/antenna.h"
#include "channel/fading.h"
#include "channel/geometry.h"
#include "channel/link_channel.h"
#include "channel/pathloss.h"
#include "util/rng.h"
#include "util/stats.h"

namespace wgtt::channel {
namespace {

TEST(GeometryTest, VectorOps) {
  const Vec2 a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, a), 5.0);
  const Vec2 b = a + Vec2{1.0, -1.0};
  EXPECT_EQ(b, (Vec2{4.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{6.0, 8.0}));
}

TEST(GeometryTest, Angles) {
  EXPECT_NEAR(angle_of({1.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(angle_of({0.0, 1.0}), M_PI / 2, 1e-12);
  EXPECT_NEAR(angle_between(0.1, -0.1), 0.2, 1e-12);
  // Wraps correctly across +/- pi.
  EXPECT_NEAR(angle_between(M_PI - 0.05, -M_PI + 0.05), 0.1, 1e-12);
  EXPECT_NEAR(deg_to_rad(180.0), M_PI, 1e-12);
  EXPECT_NEAR(rad_to_deg(M_PI / 2), 90.0, 1e-12);
}

TEST(PathLossTest, MonotoneInDistance) {
  LogDistancePathLoss pl(2.9);
  double prev = pl.loss_db(1.0);
  for (double d = 2.0; d < 200.0; d *= 1.5) {
    const double cur = pl.loss_db(d);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(PathLossTest, TenXDistanceCostsTenNdb) {
  LogDistancePathLoss pl(2.9, 40.0);
  EXPECT_NEAR(pl.loss_db(10.0) - pl.loss_db(1.0), 29.0, 1e-9);
  EXPECT_NEAR(pl.loss_db(100.0) - pl.loss_db(10.0), 29.0, 1e-9);
}

TEST(PathLossTest, ClampsBelowOneMetre) {
  LogDistancePathLoss pl(3.0, 40.0);
  EXPECT_DOUBLE_EQ(pl.loss_db(0.01), 40.0);
  EXPECT_THROW(LogDistancePathLoss(-1.0), std::invalid_argument);
}

TEST(ShadowFieldTest, PureAndDeterministic) {
  ShadowField f(4.0, 8.0, 42);
  const Vec2 p{13.7, -2.4};
  const double v1 = f.sample_db(p);
  const double v2 = f.sample_db(p);
  EXPECT_DOUBLE_EQ(v1, v2);  // pure: repeated queries identical
  ShadowField g(4.0, 8.0, 42);
  EXPECT_DOUBLE_EQ(g.sample_db(p), v1);  // same seed, same field
  ShadowField h(4.0, 8.0, 43);
  EXPECT_NE(h.sample_db(p), v1);  // different seed, different field
}

TEST(ShadowFieldTest, ZeroSigmaIsZero) {
  ShadowField f(0.0, 8.0, 1);
  EXPECT_DOUBLE_EQ(f.sample_db({5.0, 5.0}), 0.0);
}

TEST(ShadowFieldTest, MarginalStatistics) {
  ShadowField f(4.0, 8.0, 7);
  RunningStats s;
  // Sample far-apart points so they are nearly independent.
  for (int i = 0; i < 4000; ++i) {
    s.add(f.sample_db({i * 37.0, (i % 13) * 29.0}));
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.3);
  EXPECT_NEAR(s.stddev(), 4.0, 0.4);
}

TEST(ShadowFieldTest, SpatialCorrelation) {
  ShadowField f(4.0, 8.0, 9);
  // Nearby points are similar; distant points are not.
  RunningStats near_diff;
  RunningStats far_diff;
  for (int i = 0; i < 2000; ++i) {
    const Vec2 p{i * 23.0, 0.0};
    near_diff.add(std::fabs(f.sample_db(p) - f.sample_db(p + Vec2{0.5, 0.0})));
    far_diff.add(std::fabs(f.sample_db(p) - f.sample_db(p + Vec2{40.0, 0.0})));
  }
  EXPECT_LT(near_diff.mean(), far_diff.mean() * 0.5);
}

TEST(AntennaTest, BoresightPeak) {
  ParabolicAntenna a(14.0, 21.0, 0.0);
  EXPECT_DOUBLE_EQ(a.gain_dbi(0.0), 14.0);
}

TEST(AntennaTest, ThreeDbAtBeamEdge) {
  ParabolicAntenna a(14.0, 21.0, 0.0);
  const double half = deg_to_rad(21.0) / 2.0;
  EXPECT_NEAR(a.gain_dbi(half), 11.0, 1e-9);
  EXPECT_NEAR(a.gain_dbi(-half), 11.0, 1e-9);  // symmetric
}

TEST(AntennaTest, SidelobeFloor) {
  ParabolicAntenna a(14.0, 21.0, 0.0, 32.0);
  EXPECT_NEAR(a.gain_dbi(M_PI), 14.0 - 32.0, 1e-9);
  EXPECT_NEAR(a.gain_dbi(M_PI / 2), 14.0 - 32.0, 1e-9);
}

TEST(AntennaTest, MonotoneRolloffInMainLobe) {
  ParabolicAntenna a(14.0, 21.0, 0.0);
  double prev = a.gain_dbi(0.0);
  for (double deg = 2.0; deg <= 20.0; deg += 2.0) {
    const double g = a.gain_dbi(deg_to_rad(deg));
    EXPECT_LT(g, prev);
    prev = g;
  }
}

TEST(AntennaTest, GainToward) {
  // Dish at origin aiming +x: a target on +x gets peak gain.
  ParabolicAntenna a(14.0, 21.0, 0.0);
  EXPECT_DOUBLE_EQ(a.gain_toward({0, 0}, {10, 0}), 14.0);
  EXPECT_LT(a.gain_toward({0, 0}, {0, 10}), 0.0);
}

TEST(AntennaTest, InvalidArgs) {
  EXPECT_THROW(ParabolicAntenna(14.0, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(ParabolicAntenna(14.0, 21.0, 0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(ParabolicAntenna(14.0, 21.0, 0.0, 30.0, 0.0), std::invalid_argument);
}

TEST(SubcarrierTest, OffsetsSpanTwentyMhz) {
  EXPECT_EQ(kNumSubcarriers, 56);
  EXPECT_DOUBLE_EQ(subcarrier_offset_hz(0), -28 * 312.5e3);
  EXPECT_DOUBLE_EQ(subcarrier_offset_hz(27), -1 * 312.5e3);
  EXPECT_DOUBLE_EQ(subcarrier_offset_hz(28), 1 * 312.5e3);  // DC skipped
  EXPECT_DOUBLE_EQ(subcarrier_offset_hz(55), 28 * 312.5e3);
}

// The tone map csi()'s rotation tables are built from: indices
// 0..55 cover exactly tones -28..-1, +1..+28 — strictly increasing, DC
// never emitted, and mirror-symmetric (index i and 55-i are opposite
// tones). An off-by-one here would silently shear every rotation row.
TEST(SubcarrierTest, ToneMapExhaustive) {
  for (int i = 0; i < kNumSubcarriers; ++i) {
    const double f = subcarrier_offset_hz(i);
    const double tone = f / 312.5e3;
    EXPECT_DOUBLE_EQ(tone, std::round(tone)) << "index " << i;
    EXPECT_NE(tone, 0.0) << "index " << i;  // DC is skipped
    EXPECT_GE(tone, -28.0);
    EXPECT_LE(tone, 28.0);
    if (i > 0) EXPECT_LT(subcarrier_offset_hz(i - 1), f) << "index " << i;
    EXPECT_DOUBLE_EQ(subcarrier_offset_hz(kNumSubcarriers - 1 - i), -f)
        << "index " << i;
  }
  // The boundary pairs around DC and at the band edges, by name.
  EXPECT_DOUBLE_EQ(subcarrier_offset_hz(27), -subcarrier_offset_hz(28));
  EXPECT_DOUBLE_EQ(subcarrier_offset_hz(0), -subcarrier_offset_hz(55));
}

// One sinusoid has a closed form: gain = A * exp(j(kx*x + ky*y + w*t + p))
// with A = 1/sqrt(1) = 1. Replays the constructor's four RNG draws to
// recover the component parameters, then checks gain() against the
// analytic value at several (pos, t) — the ground truth the SoA component
// tables must reproduce.
TEST(SpatialTapTest, SingleSinusoidAnalyticValue) {
  constexpr double two_pi = 2.0 * std::numbers::pi;
  constexpr double env_doppler_hz = 1.5;
  Rng rng_tap(91);
  SpatialTap tap(1, env_doppler_hz, rng_tap);
  ASSERT_EQ(tap.num_sinusoids(), 1);

  Rng rng_ref(91);
  const double alpha = rng_ref.uniform(0.0, two_pi);
  const double kx = two_pi / kWavelength * std::cos(alpha);
  const double ky = two_pi / kWavelength * std::sin(alpha);
  const double omega = two_pi * rng_ref.uniform(-env_doppler_hz, env_doppler_hz);
  const double phase = rng_ref.uniform(0.0, two_pi);

  for (int s = 0; s < 32; ++s) {
    const Vec2 pos{s * 0.83, (s % 3) * 1.7};
    const Time t = Time::ms(s * 41);
    const double ph = kx * pos.x + ky * pos.y + omega * t.to_seconds() + phase;
    const auto g = tap.gain(pos, t);
    EXPECT_DOUBLE_EQ(g.real(), std::cos(ph)) << "sample " << s;
    EXPECT_DOUBLE_EQ(g.imag(), std::sin(ph)) << "sample " << s;
    EXPECT_NEAR(std::abs(g), 1.0, 1e-12) << "sample " << s;
  }
}

TEST(SpatialTapTest, UnitAveragePower) {
  Rng rng(5);
  SpatialTap tap(16, 1.0, rng);
  RunningStats power;
  for (int i = 0; i < 5000; ++i) {
    // Far-separated positions decorrelate the field.
    const Vec2 p{i * 3.1, (i % 7) * 2.3};
    power.add(std::norm(tap.gain(p, Time::zero())));
  }
  EXPECT_NEAR(power.mean(), 1.0, 0.1);
}

TEST(SpatialTapTest, StaticInTimeAtZeroEnvDoppler) {
  Rng rng(6);
  SpatialTap tap(16, 0.0, rng);
  const Vec2 p{1.0, 2.0};
  const auto g0 = tap.gain(p, Time::zero());
  const auto g1 = tap.gain(p, Time::sec(100));
  EXPECT_NEAR(std::abs(g0 - g1), 0.0, 1e-9);
}

TEST(TappedDelayTest, CsiShapeAndPower) {
  Rng rng(7);
  TappedDelayChannel::Config cfg;
  TappedDelayChannel ch(cfg, rng);
  RunningStats p;
  for (int i = 0; i < 3000; ++i) {
    const auto snap = ch.csi({i * 2.7, 0.0}, Time::zero());
    ASSERT_EQ(snap.gains.size(), static_cast<std::size_t>(kNumSubcarriers));
    p.add(snap.mean_power());
  }
  EXPECT_NEAR(p.mean(), 1.0, 0.12);  // normalized to unit average power
}

TEST(TappedDelayTest, FrequencySelectivity) {
  // Multiple taps with spread delays -> different subcarriers fade
  // differently (this is what makes ESNR differ from mean SNR).
  Rng rng(8);
  TappedDelayChannel::Config cfg;
  cfg.rician_k_db = -100.0;  // pure scatter, maximal selectivity
  TappedDelayChannel ch(cfg, rng);
  double total_spread = 0.0;
  for (int i = 0; i < 50; ++i) {
    const auto snap = ch.csi({i * 5.0, 0.0}, Time::zero());
    RunningStats s;
    for (const auto& g : snap.gains) s.add(std::norm(g));
    total_spread += s.stddev() / (s.mean() + 1e-12);
  }
  EXPECT_GT(total_spread / 50.0, 0.3);
}

TEST(TappedDelayTest, SingleTapIsFlat) {
  Rng rng(9);
  TappedDelayChannel::Config cfg;
  cfg.num_taps = 1;
  cfg.delay_spread_ns = 0.0;
  TappedDelayChannel ch(cfg, rng);
  const auto snap = ch.csi({3.0, 1.0}, Time::zero());
  // All subcarriers identical for a single zero-delay tap.
  for (const auto& g : snap.gains) {
    EXPECT_NEAR(std::abs(g - snap.gains[0]), 0.0, 1e-9);
  }
}

TEST(TappedDelayTest, SpatialCoherence) {
  // The field decorrelates on the wavelength scale: |correlation| high at
  // lambda/20 displacement, low at 10 lambda.
  Rng rng(10);
  TappedDelayChannel::Config cfg;
  cfg.rician_k_db = -100.0;
  TappedDelayChannel ch(cfg, rng);
  double close_corr = 0.0;
  double far_corr = 0.0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    const Vec2 p{i * 1.7, 0.0};
    const auto a = ch.flat_gain(p, Time::zero());
    const auto b = ch.flat_gain(p + Vec2{kWavelength / 20.0, 0.0}, Time::zero());
    const auto c = ch.flat_gain(p + Vec2{10.0 * kWavelength, 0.0}, Time::zero());
    close_corr += std::real(a * std::conj(b));
    far_corr += std::real(a * std::conj(c));
  }
  EXPECT_GT(close_corr / n, 0.7);
  EXPECT_LT(std::fabs(far_corr) / n, 0.3);
}

TEST(TappedDelayTest, RicianLosRaisesMinimumPower) {
  Rng rng(11);
  TappedDelayChannel::Config strong;
  strong.rician_k_db = 12.0;
  TappedDelayChannel::Config weak;
  weak.rician_k_db = -100.0;
  TappedDelayChannel ch_strong(strong, rng);
  TappedDelayChannel ch_weak(weak, rng);
  double min_strong = 1e9;
  double min_weak = 1e9;
  for (int i = 0; i < 2000; ++i) {
    const Vec2 p{i * 0.21, 0.0};
    min_strong = std::min(min_strong, std::norm(ch_strong.flat_gain(p, Time::zero())));
    min_weak = std::min(min_weak, std::norm(ch_weak.flat_gain(p, Time::zero())));
  }
  // A strong LoS component bounds fades away from zero.
  EXPECT_GT(min_strong, min_weak * 10.0);
}

// ISSUE 4 contract: the hot-path restructuring of the CSI compute path
// (fixed-size gains, precomputed sqrt amplitudes, flattened rotation table)
// must be *bit-identical* to the seed formula. This reference re-derives
// every constructor-computed constant with the seed's exact expressions and
// RNG consumption order, evaluates the seed's per-sample formula, and
// compares sample by sample with exact floating-point equality.
TEST(TappedDelayTest, BitIdenticalToReferenceFormula) {
  const TappedDelayChannel::Config cfg;  // paper defaults: 6 taps, 16 sinusoids
  Rng rng_real(77);
  TappedDelayChannel ch(cfg, rng_real);

  constexpr double two_pi = 2.0 * std::numbers::pi;
  Rng rng_ref(77);
  const double k_lin = from_db(cfg.rician_k_db);
  const double los_power = k_lin / (k_lin + 1.0);
  const double scatter_power = 1.0 / (k_lin + 1.0);
  const double los_phase_rate = two_pi / kWavelength;
  const double tap_spacing_ns =
      cfg.num_taps > 1 ? cfg.delay_spread_ns * 2.0 / (cfg.num_taps - 1) : 0.0;
  std::vector<double> raw(static_cast<std::size_t>(cfg.num_taps));
  double total = 0.0;
  for (int l = 0; l < cfg.num_taps; ++l) {
    const double delay = l * tap_spacing_ns;
    raw[static_cast<std::size_t>(l)] =
        cfg.delay_spread_ns > 0.0 ? std::exp(-delay / cfg.delay_spread_ns)
                                  : (l == 0 ? 1.0 : 0.0);
    total += raw[static_cast<std::size_t>(l)];
  }
  std::vector<double> power;
  std::vector<SpatialTap> fields;
  std::vector<std::vector<std::complex<double>>> rot;
  for (int l = 0; l < cfg.num_taps; ++l) {
    power.push_back(scatter_power * raw[static_cast<std::size_t>(l)] / total);
    fields.emplace_back(cfg.sinusoids_per_tap, cfg.env_doppler_hz, rng_ref);
    std::vector<std::complex<double>> r(kNumSubcarriers);
    const double delay_ns = l * tap_spacing_ns;
    for (int i = 0; i < kNumSubcarriers; ++i) {
      const double phase = -two_pi * subcarrier_offset_hz(i) * delay_ns * 1e-9;
      r[static_cast<std::size_t>(i)] = {std::cos(phase), std::sin(phase)};
    }
    rot.push_back(std::move(r));
  }

  for (int s = 0; s < 200; ++s) {
    const Vec2 pos{s * 0.37, (s % 5) * 0.11};
    const Time t = Time::us(s * 137);
    const CsiSnapshot snap = ch.csi(pos, t);

    // The seed formula, verbatim: per-call sqrt, nested rotation vectors.
    std::vector<std::complex<double>> ref(kNumSubcarriers, {0.0, 0.0});
    const std::complex<double> los =
        std::sqrt(los_power) *
        std::complex<double>{std::cos(los_phase_rate * pos.x),
                             std::sin(los_phase_rate * pos.x)};
    for (std::size_t l = 0; l < fields.size(); ++l) {
      const std::complex<double> g = std::sqrt(power[l]) * fields[l].gain(pos, t);
      for (int i = 0; i < kNumSubcarriers; ++i) {
        ref[static_cast<std::size_t>(i)] += g * rot[l][static_cast<std::size_t>(i)];
      }
    }
    for (auto& g : ref) g += los;

    for (int i = 0; i < kNumSubcarriers; ++i) {
      const auto k = static_cast<std::size_t>(i);
      ASSERT_EQ(snap.gains[k].real(), ref[k].real()) << "sample " << s << " sc " << i;
      ASSERT_EQ(snap.gains[k].imag(), ref[k].imag()) << "sample " << s << " sc " << i;
    }

    // flat_gain shares the precomputed amplitudes; check it the same way.
    std::complex<double> flat_ref =
        std::sqrt(los_power) *
        std::complex<double>{std::cos(los_phase_rate * pos.x),
                             std::sin(los_phase_rate * pos.x)};
    for (std::size_t l = 0; l < fields.size(); ++l) {
      flat_ref += std::sqrt(power[l]) * fields[l].gain(pos, t);
    }
    const std::complex<double> flat = ch.flat_gain(pos, t);
    ASSERT_EQ(flat.real(), flat_ref.real()) << "sample " << s;
    ASSERT_EQ(flat.imag(), flat_ref.imag()) << "sample " << s;
  }
}

// Same contract one layer up: measure()'s indexed fill into the fixed-size
// SNR array must reproduce the seed's push_back loop bit for bit.
TEST(LinkChannelTest, MeasureBitIdenticalToSeedFormula) {
  LinkChannel::Config cfg;
  Rng rng_real(31);
  LinkChannel link({0.0, 15.0}, {40.0, 0.0}, cfg, rng_real);

  // Replay the constructor's RNG consumption: one next_u64() for the shadow
  // field seed, then the fading field construction.
  Rng rng_ref(31);
  (void)rng_ref.next_u64();
  TappedDelayChannel ref_fading(cfg.fading, rng_ref);

  for (int s = 0; s < 100; ++s) {
    const Vec2 pos{-20.0 + s * 0.83, (s % 3) * 0.4};
    const Time t = Time::ms(s * 7);
    const CsiMeasurement m = link.measure(pos, t);

    const double rx_dbm = link.large_scale_rx_dbm(pos);
    const CsiSnapshot snap = ref_fading.csi(pos, t);
    const double base_snr_db = rx_dbm - cfg.budget.noise_floor_dbm;
    std::vector<double> ref_snr;
    ref_snr.reserve(snap.gains.size());
    double mean_power = 0.0;
    double mean_snr_lin = 0.0;
    for (const auto& g : snap.gains) {
      const double p = std::norm(g);
      mean_power += p;
      const double snr_db = base_snr_db + to_db(std::max(p, 1e-4));
      ref_snr.push_back(snr_db);
      mean_snr_lin += from_db(snr_db);
    }
    mean_power /= static_cast<double>(snap.gains.size());
    const double ref_rssi = rx_dbm + to_db(std::max(mean_power, 1e-4));
    const double ref_mean_snr =
        to_db(mean_snr_lin / static_cast<double>(snap.gains.size()));

    for (int i = 0; i < kNumSubcarriers; ++i) {
      const auto k = static_cast<std::size_t>(i);
      ASSERT_EQ(m.subcarrier_snr_db[k], ref_snr[k]) << "sample " << s << " sc " << i;
    }
    ASSERT_EQ(m.rssi_dbm, ref_rssi) << "sample " << s;
    ASSERT_EQ(m.mean_snr_db, ref_mean_snr) << "sample " << s;
  }
}

TEST(LinkChannelTest, SnrFallsWithDistanceAlongRoad) {
  Rng rng(12);
  LinkChannel::Config cfg;
  cfg.shadowing_sigma_db = 0.0;
  LinkChannel link({0.0, 15.0}, {0.0, 0.0}, cfg, rng);
  const double at_boresight = link.large_scale_snr_db({0.0, 0.0});
  const double at_5m = link.large_scale_snr_db({5.0, 0.0});
  const double at_15m = link.large_scale_snr_db({15.0, 0.0});
  EXPECT_GT(at_boresight, at_5m);
  EXPECT_GT(at_5m, at_15m);
  EXPECT_GT(at_boresight - at_15m, 20.0);  // picocell: fast die-off
}

TEST(LinkChannelTest, MeasureIsPure) {
  Rng rng(13);
  LinkChannel::Config cfg;
  LinkChannel link({0.0, 15.0}, {0.0, 0.0}, cfg, rng);
  const auto a = link.measure({1.0, 0.0}, Time::ms(5));
  const auto b = link.measure({1.0, 0.0}, Time::ms(5));
  ASSERT_EQ(a.subcarrier_snr_db.size(), b.subcarrier_snr_db.size());
  for (std::size_t i = 0; i < a.subcarrier_snr_db.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.subcarrier_snr_db[i], b.subcarrier_snr_db[i]);
  }
  EXPECT_DOUBLE_EQ(a.rssi_dbm, b.rssi_dbm);
}

TEST(LinkChannelTest, MeasurementFieldsConsistent) {
  Rng rng(14);
  LinkChannel::Config cfg;
  LinkChannel link({0.0, 15.0}, {0.0, 0.0}, cfg, rng);
  const auto m = link.measure({0.5, 0.0}, Time::ms(1));
  ASSERT_EQ(m.subcarrier_snr_db.size(), static_cast<std::size_t>(kNumSubcarriers));
  // Mean SNR lies within the subcarrier range.
  double lo = 1e9;
  double hi = -1e9;
  for (double s : m.subcarrier_snr_db) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_GE(m.mean_snr_db, lo);
  EXPECT_LE(m.mean_snr_db, hi + 1e-9);
  // RSSI = noise floor + mean power: consistent with the budget.
  EXPECT_GT(m.rssi_dbm, -95.0);
  EXPECT_LT(m.rssi_dbm, 0.0);
}

// The certified-skipping bound (DESIGN.md §14): snr_ceiling_db is at
// least every subcarrier SNR measure() reports, over random link configs,
// positions and times. One tap with one sinusoid under a strong LoS is the
// case where the triangle inequality can be met with equality (the two
// phasors line up), so a quarter of the links take that shape and must
// come close to their ceiling without crossing it.
TEST(LinkChannelTest, SnrCeilingBoundsEverySubcarrier) {
  Rng rng(2017);
  double tight_gap_db = std::numeric_limits<double>::infinity();
  for (int l = 0; l < 240; ++l) {
    const bool tight = l % 4 == 0;
    LinkChannel::Config cfg;
    cfg.fading.num_taps = tight ? 1 : 1 + static_cast<int>(rng.uniform_int(8));
    cfg.fading.sinusoids_per_tap =
        tight ? 1 : 1 + static_cast<int>(rng.uniform_int(24));
    cfg.fading.rician_k_db = tight ? rng.uniform(6.0, 30.0)
                                   : rng.uniform(-30.0, 15.0);
    cfg.fading.delay_spread_ns = rng.uniform(0.0, 300.0);
    cfg.fading.env_doppler_hz = rng.uniform(0.0, 5.0);
    cfg.shadowing_sigma_db = rng.uniform(0.0, 6.0);
    cfg.pathloss_exponent = rng.uniform(2.0, 4.0);
    cfg.budget.tx_power_dbm = rng.uniform(0.0, 30.0);
    const Vec2 ap{rng.uniform(-50.0, 50.0), rng.uniform(2.0, 30.0)};
    const Vec2 aim{ap.x + rng.uniform(-20.0, 20.0), 0.0};
    Rng link_rng(rng.next_u64());
    const LinkChannel link(ap, aim, cfg, link_rng);
    for (int s = 0; s < 150; ++s) {
      const Vec2 pos{rng.uniform(-200.0, 200.0), rng.uniform(-5.0, 5.0)};
      const Time t = Time::micros(rng.uniform(0.0, 60e6));
      const double ceiling = link.snr_ceiling_db(pos);
      const CsiMeasurement m = link.measure(pos, t);
      for (int i = 0; i < kNumSubcarriers; ++i) {
        const double snr = m.subcarrier_snr_db[static_cast<std::size_t>(i)];
        ASSERT_LE(snr, ceiling) << "link " << l << " sample " << s << " sc " << i;
        if (tight) tight_gap_db = std::min(tight_gap_db, ceiling - snr);
      }
    }
  }
  // Not vacuous: the tight links approach their ceilings.
  EXPECT_LT(tight_gap_db, 0.01);
}

// Physics property: driving through the fading field yields the classic
// Clarke coherence behaviour — the autocorrelation of the channel gain
// falls off on the scale of ~lambda/2 of TRAVEL DISTANCE, so the coherence
// TIME halves when the speed doubles.
class CoherenceProperty : public ::testing::TestWithParam<double> {};

TEST_P(CoherenceProperty, CoherenceTimeScalesInverselyWithSpeed) {
  const double mph = GetParam();
  const double v = mph_to_mps(mph);
  Rng rng(31);
  TappedDelayChannel::Config cfg;
  cfg.rician_k_db = -100.0;  // Rayleigh: cleanest statistics
  cfg.env_doppler_hz = 0.0;  // isolate motion-induced decorrelation
  TappedDelayChannel ch(cfg, rng);

  // Sample the flat gain along a drive at speed v and find the lag at which
  // the (complex) autocorrelation first drops below 0.5.
  const double dt = 0.0002;  // 0.2 ms sampling
  const int n = 20000;
  std::vector<std::complex<double>> g;
  g.reserve(n);
  for (int i = 0; i < n; ++i) {
    g.push_back(ch.flat_gain({v * i * dt, 0.0}, Time::zero()));
  }
  double power = 0.0;
  for (const auto& x : g) power += std::norm(x);
  power /= n;
  int lag = 1;
  for (; lag < 2000; ++lag) {
    std::complex<double> acc{0.0, 0.0};
    for (int i = 0; i + lag < n; ++i) acc += g[i] * std::conj(g[i + lag]);
    const double corr = std::abs(acc) / ((n - lag) * power);
    if (corr < 0.5) break;
  }
  const double coherence_ms = lag * dt * 1e3;
  // Clarke: Tc ~ 9 lambda / (16 pi v) ... various constants; what must hold
  // exactly is the inverse-speed scaling. Check the product v * Tc lands in
  // a fixed band (equivalent to a decorrelation distance of ~2-8 cm).
  const double decorrelation_m = v * coherence_ms * 1e-3;
  EXPECT_GT(decorrelation_m, 0.02) << "at " << mph << " mph";
  EXPECT_LT(decorrelation_m, 0.08) << "at " << mph << " mph";
  // And the paper's quoted regime: ~2-3 ms coherence at 2.4 GHz driving
  // speeds (we accept a wider band across the sweep).
  if (mph >= 15.0) {
    EXPECT_GT(coherence_ms, 0.5);
    EXPECT_LT(coherence_ms, 12.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Speeds, CoherenceProperty,
                         ::testing::Values(5.0, 15.0, 25.0, 35.0));

}  // namespace
}  // namespace wgtt::channel
