// Antenna gain patterns. The testbed uses a Laird 14 dBi parabolic antenna
// with 21 degree (full) 3 dB beamwidth per AP (paper §4.2); clients use
// omnidirectional antennas.
#pragma once

#include "channel/geometry.h"

namespace wgtt::channel {

/// Directional pattern: generalized parabolic-dish main-lobe approximation
/// with a flat side-lobe floor:
///   G(theta) = G0 - min(3 * (theta / theta_half)^p, sll) dBi
/// where theta_half is half the 3 dB beamwidth (so the gain is 3 dB down at
/// the beam edge by construction). p = 2 is the textbook quadratic; real
/// dishes fall off faster past the main lobe, and p ~ 3 with a ~32 dB
/// floor reproduces the paper's Figure 10 coverage: ~5 m cells, 6-10 m of
/// usable overlap with the adjacent AP, and side lobes just strong enough
/// that nearby APs still decode the client's (robust, short) control
/// frames — which block-ACK forwarding and uplink diversity depend on.
class ParabolicAntenna {
 public:
  /// beamwidth_deg: full 3 dB beamwidth (21 for the Laird GD24BP).
  /// boresight_rad: direction the dish points, world frame.
  ParabolicAntenna(double peak_gain_dbi, double beamwidth_deg,
                   double boresight_rad, double sidelobe_attenuation_db = 32.0,
                   double rolloff_exponent = 3.0);

  /// Gain toward absolute direction `toward_rad` (world frame), in dBi.
  [[nodiscard]] double gain_dbi(double toward_rad) const;

  /// Gain toward a point, from the antenna position.
  [[nodiscard]] double gain_toward(Vec2 self, Vec2 target) const;

 private:
  double peak_gain_dbi_;
  double half_beamwidth_rad_;
  double boresight_rad_;
  double sidelobe_attenuation_db_;
  double rolloff_exponent_;
};

}  // namespace wgtt::channel
