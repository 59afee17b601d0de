#include "mobility/trajectory.h"

namespace wgtt::mobility {

LineDrive::LineDrive(double start_x, double lane_y, double speed_mps,
                     Time depart)
    : start_x_(start_x), lane_y_(lane_y), speed_(speed_mps), depart_(depart) {}

channel::Vec2 LineDrive::position(Time t) const {
  const double elapsed = (t - depart_).to_seconds();
  if (elapsed <= 0.0) return {start_x_, lane_y_};
  return {start_x_ + speed_ * elapsed, lane_y_};
}

Time LineDrive::time_at_x(double x) const {
  if (speed_ == 0.0) return Time::max();
  const double dt = (x - start_x_) / speed_;
  if (dt < 0.0) return Time::zero();
  return depart_ + Time::seconds(dt);
}

}  // namespace wgtt::mobility
