// Client mobility models. The testbed road runs along x; vehicles drive at
// a constant speed in either direction, in one of two lanes. The paper's
// multi-client scenarios (Figure 19) are built from these: following
// (same lane, 3 m spacing), parallel (adjacent lanes, same x), opposing
// (opposite directions).
#pragma once

#include "channel/geometry.h"
#include "util/units.h"

namespace wgtt::mobility {

class Trajectory {
 public:
  virtual ~Trajectory() = default;
  [[nodiscard]] virtual channel::Vec2 position(Time t) const = 0;
};

/// Parked client (the "static" bars of Figure 13).
class StaticPosition final : public Trajectory {
 public:
  explicit StaticPosition(channel::Vec2 pos) : pos_(pos) {}
  [[nodiscard]] channel::Vec2 position(Time) const override { return pos_; }

 private:
  channel::Vec2 pos_;
};

/// Constant-velocity drive along the road from a start position.
class LineDrive final : public Trajectory {
 public:
  /// speed_mps > 0 drives toward +x, < 0 toward -x. `lane_y` is the lane's
  /// perpendicular offset from the road centerline.
  LineDrive(double start_x, double lane_y, double speed_mps,
            Time depart = Time::zero());

  [[nodiscard]] channel::Vec2 position(Time t) const override;

  /// Time at which the vehicle crosses road coordinate `x` (for aligning
  /// measurement windows with the AP array).
  [[nodiscard]] Time time_at_x(double x) const;

 private:
  double start_x_;
  double lane_y_;
  double speed_;
  Time depart_;
};

}  // namespace wgtt::mobility
