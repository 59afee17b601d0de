// Small-scale multipath fading.
//
// The vehicular picocell regime (paper Figure 2) is defined by fast fading
// that decorrelates on the scale of an RF wavelength (~12 cm at 2.4 GHz):
// a car at 25 mph crosses a fade in ~2-3 ms, matching the coherence time the
// paper cites. We model each resolvable multipath tap as a *spatial*
// sum-of-sinusoids (Jakes-style) random field over the client's position,
// plus a slow temporal phase drift for environmental motion. Driving through
// the field at speed v then yields exactly the Doppler spectrum and
// coherence time that v implies — and a parked client sees an almost-static
// channel, as it should.
//
// A TappedDelayChannel combines several such taps (exponential power-delay
// profile) into a frequency-selective 56-subcarrier response: the CSI that
// WGTT APs extract from client uplink frames.
#pragma once

#include <array>
#include <complex>
#include <vector>

#include "channel/geometry.h"
#include "util/rng.h"
#include "util/units.h"

namespace wgtt::channel {

/// Per-subcarrier complex channel gains (linear voltage scale, unit average
/// power across the ensemble), in subcarrier order -28..-1, +1..+28.
///
/// Fixed-size: the subcarrier count is a PHY constant, so snapshots live
/// entirely on the stack — csi() performs zero heap allocations per frame
/// (DESIGN.md §8).
struct CsiSnapshot {
  Time when;
  std::array<std::complex<double>, kNumSubcarriers> gains{};

  /// Mean power across subcarriers (linear).
  [[nodiscard]] double mean_power() const;
};

/// One multipath tap: unit-power complex Gaussian spatial field.
///
/// Component parameters are stored as structure-of-arrays (one contiguous
/// vector per parameter) so the phase evaluation in gain() streams four
/// sequential arrays instead of strided struct fields. The sinusoid
/// reduction itself stays in component order — reassociating the sum would
/// change the rounded result, and gain() is locked bit-identical to the
/// seed formula (channel_test::SpatialTapSingleSinusoidAnalytic and
/// BitIdenticalToReferenceFormula).
class SpatialTap {
 public:
  /// num_sinusoids ~12-24 suffices for Rayleigh statistics.
  /// env_doppler_hz models scatterer motion seen by a static client.
  SpatialTap(int num_sinusoids, double env_doppler_hz, Rng& rng);

  /// Complex gain at client position `pos`, time `t`.
  [[nodiscard]] std::complex<double> gain(Vec2 pos, Time t) const;

  [[nodiscard]] int num_sinusoids() const { return static_cast<int>(kx_.size()); }

  /// Upper bound on |gain()| anywhere, any time: the sum of the component
  /// amplitudes (triangle inequality), i.e. sqrt(M) for M sinusoids.
  [[nodiscard]] double peak_magnitude() const;

 private:
  std::vector<double> kx_, ky_;  // spatial wavevector (rad/m)
  std::vector<double> omega_;    // temporal angular rate (rad/s)
  std::vector<double> phase_;    // random phase offset
  double amplitude_ = 0.0;       // uniform 1/sqrt(M) per component
};

/// Power-delay profile + per-tap spatial fields -> frequency-selective CSI.
class TappedDelayChannel {
 public:
  struct Config {
    int num_taps = 6;
    double delay_spread_ns = 120.0;   // exponential PDP; small-cell outdoor
    /// LoS strength. The roadside overlap zones are effectively NLOS (the
    /// dish points elsewhere; energy arrives via reflections), so the
    /// default is a weak LoS: deep, frequent fades — the regime of Figure 2.
    double rician_k_db = -3.0;
    int sinusoids_per_tap = 16;
    double env_doppler_hz = 1.5;      // scatterer motion for static clients
  };

  TappedDelayChannel(const Config& config, Rng& rng);

  /// CSI across the 56 subcarriers at client position/time, normalized to
  /// unit average power (large-scale effects are applied by LinkChannel).
  /// All taps × 56 subcarriers are accumulated in separate real/imaginary
  /// lanes over the SoA rotation tables, so the complex multiply-accumulates
  /// auto-vectorize across subcarriers without -ffast-math (DESIGN.md
  /// §11.6); the per-tap operand values and the tap-order accumulation are
  /// those of the seed formula, so the result is bit-identical to it
  /// (channel_test locks this).
  [[nodiscard]] CsiSnapshot csi(Vec2 pos, Time t) const;

  /// Scalar (flat-fading) gain: tap sum without frequency selectivity.
  [[nodiscard]] std::complex<double> flat_gain(Vec2 pos, Time t) const;

  /// Upper bound on every csi() gain magnitude at any position and time:
  /// |LoS| + sum over taps of amplitude * SpatialTap::peak_magnitude(), by
  /// the triangle inequality (the subcarrier rotations have unit modulus).
  [[nodiscard]] double peak_magnitude() const;

 private:
  struct Tap {
    double power;      // linear, sums to (1 - los_power) over taps
    double amplitude;  // sqrt(power), hoisted out of every csi()/flat_gain()
    double delay_ns;
    SpatialTap field;
  };
  std::vector<Tap> taps_;
  double los_power_ = 0.0;         // Rician line-of-sight on the first delay
  double los_amplitude_ = 0.0;     // sqrt(los_power_), precomputed
  double los_phase_rate_ = 0.0;    // rad per metre of client motion (x axis)
  // Precomputed subcarrier phase factors exp(-j 2 pi f_k tau_l), flattened
  // to structure-of-arrays blocks: tap l's rotations occupy
  // [l * kNumSubcarriers, (l+1) * kNumSubcarriers) of each table. Separate
  // re/im arrays let csi()'s inner loop run as four independent
  // real-lane multiply-accumulate streams.
  std::vector<double> rot_re_;
  std::vector<double> rot_im_;
};

/// Centre frequency offset of subcarrier index i (0..55), Hz.
[[nodiscard]] double subcarrier_offset_hz(int i);

}  // namespace wgtt::channel
