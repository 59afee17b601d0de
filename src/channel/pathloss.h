// Large-scale propagation: log-distance path loss plus spatially correlated
// lognormal shadowing. These produce the second-scale fading envelope in the
// paper's Figure 2; the millisecond structure comes from fading.h.
#pragma once

#include <cstdint>

#include "channel/geometry.h"

namespace wgtt::channel {

/// PL(d) = PL(d0) + 10 n log10(d / d0), d0 = 1 m.
class LogDistancePathLoss {
 public:
  /// exponent ~2.7-3.2 fits roadside links with a building-mounted AP;
  /// reference_loss_db is free-space loss at 1 m for 2.4 GHz (~40.2 dB).
  explicit LogDistancePathLoss(double exponent = 2.9,
                               double reference_loss_db = 40.2);

  [[nodiscard]] double loss_db(double distance_m) const;

 private:
  double exponent_;
  double reference_loss_db_;
};

/// Lognormal shadowing as a *pure* spatial random field: the value at a
/// position is a normalized bilinear blend of hash-seeded unit Gaussians on
/// a grid whose pitch is the decorrelation distance (Gudmundson-style
/// spatial correlation). Purity matters: measurement code (ground-truth
/// "optimal AP" queries for the switching-accuracy metric) can sample the
/// field without perturbing the channel the protocols see.
class ShadowField {
 public:
  ShadowField(double sigma_db, double decorrelation_distance_m,
              std::uint64_t seed);

  /// Shadowing in dB (zero mean, stddev sigma) at `position`. Pure.
  [[nodiscard]] double sample_db(Vec2 position) const;

 private:
  [[nodiscard]] double node_value(std::int64_t ix, std::int64_t iy) const;

  double sigma_db_;
  double grid_m_;
  std::uint64_t seed_;
};

}  // namespace wgtt::channel
