#include "mac/medium.h"

#include <algorithm>
#include <stdexcept>

namespace wgtt::mac {

Medium::Medium(sim::Scheduler& sched, const Config& config)
    : sched_(sched), config_(config) {}

RadioId Medium::add_radio(PositionFn position, RxHandler on_rx) {
  radios_.push_back(Radio{std::move(position), std::move(on_rx), 1});
  return RadioId{static_cast<std::uint32_t>(radios_.size() - 1)};
}

void Medium::set_radio_channel(RadioId id, int channel) {
  const auto i = static_cast<std::size_t>(id);
  if (i >= radios_.size()) throw std::out_of_range("unknown radio");
  radios_[i].channel = channel;
}

int Medium::radio_channel(RadioId id) const {
  const auto i = static_cast<std::size_t>(id);
  if (i >= radios_.size()) throw std::out_of_range("unknown radio");
  return radios_[i].channel;
}

bool Medium::audible(const Flight& f, channel::Vec2 at, int rx_channel) const {
  if (rx_channel == kNoChannel || f.channel != rx_channel) return false;
  return channel::distance(f.origin, at) <= config_.sense_range_m;
}

void Medium::prune(Time now) {
  std::erase_if(in_flight_, [now](const Flight& f) { return f.end < now; });
}

Time Medium::busy_until(RadioId id) const {
  const auto i = static_cast<std::size_t>(id);
  if (i >= radios_.size()) throw std::out_of_range("unknown radio");
  const channel::Vec2 pos = radios_[i].position();
  const int ch = radios_[i].channel;
  const Time now = sched_.now();
  Time horizon = now;
  for (const auto& f : in_flight_) {
    if (f.end > horizon && f.from != id && audible(f, pos, ch)) horizon = f.end;
  }
  return horizon;
}

std::uint64_t Medium::transmit(RadioId from, Frame frame, Time duration) {
  const auto from_idx = static_cast<std::size_t>(from);
  if (from_idx >= radios_.size()) throw std::out_of_range("unknown radio");
  prune(sched_.now());

  const Time start = sched_.now();
  const Time end = start + duration;
  frame.tx_uid = next_tx_uid_++;
  frame.from = from;
  frame.air_start = start;
  frame.air_end = end;

  const channel::Vec2 origin = radios_[from_idx].position();
  in_flight_.push_back(
      Flight{frame.tx_uid, from, origin, start, end, radios_[from_idx].channel});

  // Schedule reception at air end for every radio that could hear the
  // frame: every registered radio, or — with a reach filter wired — the
  // filter's superset of the audible set. Audibility and collision are
  // evaluated at delivery time, against the receiver position/channel then
  // (positions move metres per second; a frame lasts microseconds, so
  // end-time evaluation is accurate — and a mid-frame retune correctly
  // loses the frame).
  if (reach_) {
    reach_scratch_.clear();
    reach_(origin, reach_scratch_);
    for (const RadioId rid : reach_scratch_) {
      const auto r = static_cast<std::size_t>(rid);
      if (r == from_idx || r >= radios_.size()) continue;
      sched_.schedule_at(end, [this, r, frame] { deliver(r, frame); },
                         sim::EventCategory::kMacRx);
    }
  } else {
    for (std::size_t r = 0; r < radios_.size(); ++r) {
      if (r == from_idx) continue;
      sched_.schedule_at(end, [this, r, frame] { deliver(r, frame); },
                         sim::EventCategory::kMacRx);
    }
  }
  return frame.tx_uid;
}

void Medium::deliver(std::size_t r, const Frame& frame) {
  const channel::Vec2 pos = radios_[r].position();
  const int ch = radios_[r].channel;
  // Find this flight again (it is pruned lazily, so it may linger).
  const Flight* self = nullptr;
  bool collided = false;
  for (const auto& f : in_flight_) {
    if (f.uid == frame.tx_uid) {
      self = &f;
      continue;
    }
  }
  if (self == nullptr || !audible(*self, pos, ch)) return;
  // This frame's own power matters only against an overlapping one.
  std::optional<double> own_dbm;
  for (const auto& f : in_flight_) {
    if (f.uid == frame.tx_uid) continue;
    const bool overlaps = f.start < self->end && f.end > self->start;
    if (!overlaps || !audible(f, pos, ch)) continue;
    if (power_) {
      // Capture effect: the frame survives if it is decisively
      // stronger than the interferer at this listener.
      if (!own_dbm) own_dbm = power_(frame.from, pos);
      const double other_dbm = power_(f.from, pos);
      if (*own_dbm >= other_dbm + config_.capture_threshold_db) continue;
    }
    collided = true;
    break;
  }
  if (collided) ++collisions_;
  radios_[r].on_rx(frame, RxContext{collided});
}

}  // namespace wgtt::mac
