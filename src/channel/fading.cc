#include "channel/fading.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace wgtt::channel {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr double kSubcarrierSpacingHz = 312.5e3;
}  // namespace

double CsiSnapshot::mean_power() const {
  double p = 0.0;
  for (const auto& g : gains) p += std::norm(g);
  return p / static_cast<double>(gains.size());
}

double subcarrier_offset_hz(int i) {
  // 56 tones at indices -28..-1, +1..+28 (DC skipped), 312.5 kHz spacing.
  const int k = i < 28 ? i - 28 : i - 27;
  return k * kSubcarrierSpacingHz;
}

SpatialTap::SpatialTap(int num_sinusoids, double env_doppler_hz, Rng& rng) {
  if (num_sinusoids <= 0) throw std::invalid_argument("need at least one sinusoid");
  const auto count = static_cast<std::size_t>(num_sinusoids);
  kx_.reserve(count);
  ky_.reserve(count);
  omega_.reserve(count);
  phase_.reserve(count);
  const double k_mag = kTwoPi / kWavelength;
  amplitude_ = 1.0 / std::sqrt(static_cast<double>(num_sinusoids));
  for (int m = 0; m < num_sinusoids; ++m) {
    const double alpha = rng.uniform(0.0, kTwoPi);  // arrival direction
    kx_.push_back(k_mag * std::cos(alpha));
    ky_.push_back(k_mag * std::sin(alpha));
    // Environmental Doppler: each scatterer drifts at a random rate within
    // +/- env_doppler_hz, so a static client still sees slow variation.
    omega_.push_back(kTwoPi * rng.uniform(-env_doppler_hz, env_doppler_hz));
    phase_.push_back(rng.uniform(0.0, kTwoPi));
  }
}

std::complex<double> SpatialTap::gain(Vec2 pos, Time t) const {
  const double ts = t.to_seconds();
  double re = 0.0;
  double im = 0.0;
  // Component order is the draw order; the reduction must stay in that
  // order (not reassociated) to keep gain() bit-identical to the seed
  // formula. The cos/sin pair dominates anyway, so the win from the SoA
  // layout is locality, not lane-parallel math.
  const std::size_t n = kx_.size();
  for (std::size_t m = 0; m < n; ++m) {
    const double ph = kx_[m] * pos.x + ky_[m] * pos.y + omega_[m] * ts + phase_[m];
    re += amplitude_ * std::cos(ph);
    im += amplitude_ * std::sin(ph);
  }
  return {re, im};
}

double SpatialTap::peak_magnitude() const {
  return amplitude_ * static_cast<double>(kx_.size());
}

TappedDelayChannel::TappedDelayChannel(const Config& config, Rng& rng) {
  if (config.num_taps <= 0) throw std::invalid_argument("need at least one tap");
  // Rician K: power ratio of the LoS component to all scattered power.
  const double k_lin = from_db(config.rician_k_db);
  los_power_ = k_lin / (k_lin + 1.0);
  const double scatter_power = 1.0 / (k_lin + 1.0);
  los_phase_rate_ = kTwoPi / kWavelength;  // LoS phase advances with motion

  // Exponential power-delay profile over num_taps taps.
  std::vector<double> raw(static_cast<std::size_t>(config.num_taps));
  const double tap_spacing_ns =
      config.num_taps > 1 ? config.delay_spread_ns * 2.0 / (config.num_taps - 1) : 0.0;
  double total = 0.0;
  for (int l = 0; l < config.num_taps; ++l) {
    const double delay = l * tap_spacing_ns;
    raw[static_cast<std::size_t>(l)] =
        config.delay_spread_ns > 0.0 ? std::exp(-delay / config.delay_spread_ns) : (l == 0 ? 1.0 : 0.0);
    total += raw[static_cast<std::size_t>(l)];
  }

  los_amplitude_ = std::sqrt(los_power_);

  taps_.reserve(static_cast<std::size_t>(config.num_taps));
  const std::size_t table =
      static_cast<std::size_t>(config.num_taps) *
      static_cast<std::size_t>(kNumSubcarriers);
  rot_re_.resize(table);
  rot_im_.resize(table);
  for (int l = 0; l < config.num_taps; ++l) {
    const double power = scatter_power * raw[static_cast<std::size_t>(l)] / total;
    Tap tap{
        .power = power,
        .amplitude = std::sqrt(power),
        .delay_ns = l * tap_spacing_ns,
        .field = SpatialTap(config.sinusoids_per_tap, config.env_doppler_hz, rng),
    };
    const std::size_t row = static_cast<std::size_t>(l) *
                            static_cast<std::size_t>(kNumSubcarriers);
    for (int i = 0; i < kNumSubcarriers; ++i) {
      const double phase = -kTwoPi * subcarrier_offset_hz(i) * tap.delay_ns * 1e-9;
      rot_re_[row + static_cast<std::size_t>(i)] = std::cos(phase);
      rot_im_[row + static_cast<std::size_t>(i)] = std::sin(phase);
    }
    taps_.push_back(std::move(tap));
  }
}

// Hot path: every restructuring here (precomputed sqrt amplitudes, the SoA
// rotation tables, fixed-size gains, real/imaginary accumulator lanes)
// keeps the original operand values and accumulation order, so the output
// is bit-identical to the seed formula — channel_test's
// BitIdenticalToReferenceFormula locks that in.
CsiSnapshot TappedDelayChannel::csi(Vec2 pos, Time t) const {
  CsiSnapshot out;
  out.when = t;

  // LoS term: flat across frequency (delay 0), phase tracks position.
  const double los_re = los_amplitude_ * std::cos(los_phase_rate_ * pos.x);
  const double los_im = los_amplitude_ * std::sin(los_phase_rate_ * pos.x);

  // Per-tap spatial gain is evaluated once (hoisted out of the subcarrier
  // loop); the inner loop is the batch kernel proper: 56 independent
  // complex multiply-accumulates, written as four real-lane streams over
  // the SoA rotation rows. Each lane's accumulator is independent across
  // subcarriers, so the compiler may vectorize the loop without changing
  // any rounding — (a+bi)(c+di) = (ac-bd) + (ad+bc)i is exactly what
  // std::complex multiplication computes for finite operands.
  double acc_re[kNumSubcarriers] = {};
  double acc_im[kNumSubcarriers] = {};
  for (std::size_t l = 0; l < taps_.size(); ++l) {
    const std::complex<double> g = taps_[l].amplitude * taps_[l].field.gain(pos, t);
    const double g_re = g.real();
    const double g_im = g.imag();
    const std::size_t row = l * static_cast<std::size_t>(kNumSubcarriers);
    const double* rr = &rot_re_[row];
    const double* ri = &rot_im_[row];
    for (int i = 0; i < kNumSubcarriers; ++i) {
      acc_re[i] += g_re * rr[i] - g_im * ri[i];
      acc_im[i] += g_re * ri[i] + g_im * rr[i];
    }
  }
  for (int i = 0; i < kNumSubcarriers; ++i) {
    out.gains[static_cast<std::size_t>(i)] = {acc_re[i] + los_re,
                                              acc_im[i] + los_im};
  }
  return out;
}

double TappedDelayChannel::peak_magnitude() const {
  double bound = los_amplitude_;
  for (const auto& tap : taps_) bound += tap.amplitude * tap.field.peak_magnitude();
  return bound;
}

std::complex<double> TappedDelayChannel::flat_gain(Vec2 pos, Time t) const {
  std::complex<double> sum =
      los_amplitude_ *
      std::complex<double>{std::cos(los_phase_rate_ * pos.x),
                           std::sin(los_phase_rate_ * pos.x)};
  for (const auto& tap : taps_) {
    sum += tap.amplitude * tap.field.gain(pos, t);
  }
  return sum;
}

}  // namespace wgtt::channel
