// The shared 2.4 GHz medium (channel 11 in the testbed).
//
// Responsibilities:
//  - carrier sense: when is the medium busy as heard at a given position?
//  - broadcast: a transmitted frame is offered to every radio in audible
//    range; each radio's owner decides decode success from its own channel.
//  - collision detection: a reception fails outright if another audible
//    transmission overlapped it in time at the listener.
//
// Audibility is geometric: transmissions are audible within
// `sense_range_m`. That is deliberately simple — carrier sense in the
// testbed is an energy threshold, and in a linear roadside deployment range
// is the dominant factor (it is what makes the paper's Figure 20 parallel
// vs opposing-direction contention difference appear).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "channel/geometry.h"
#include "mac/frame.h"
#include "sim/scheduler.h"

namespace wgtt::mac {

class Medium {
 public:
  struct Config {
    double sense_range_m = 120.0;
    /// Capture effect: a frame survives an overlap if its received power
    /// exceeds every overlapping frame by this margin (requires a power
    /// oracle; without one, any overlap is a collision).
    double capture_threshold_db = 5.0;
  };

  /// Large-scale received power (dBm) of a transmission from `tx` as heard
  /// at `at`. Wired by the scenario, which knows the link budgets; enables
  /// the capture effect (without it the paper's multi-AP block-ACK replies
  /// would collide at the client almost every time, which Table 3 shows
  /// does not happen on the real testbed).
  using PowerFn = std::function<double(RadioId tx, channel::Vec2 at)>;

  /// Receivers get the frame plus reception context.
  struct RxContext {
    bool collided = false;   // another audible transmission overlapped
  };
  using RxHandler = std::function<void(const Frame&, const RxContext&)>;
  using PositionFn = std::function<channel::Vec2()>;

  Medium(sim::Scheduler& sched, const Config& config);

  void set_power_oracle(PowerFn oracle) { power_ = std::move(oracle); }

  /// Optional interest filter (spatial interest management, DESIGN.md §9):
  /// given a transmit origin, appends the id of every radio that could
  /// possibly be within sense range — a SUPERSET of the audible set.
  /// Audibility is still checked at delivery time, so the filter only
  /// prunes deliveries that would have been discarded anyway; a pruned
  /// delivery fires no handler and draws no RNG, so a correct (superset)
  /// filter keeps seeded runs byte-identical while cutting the per-frame
  /// event fan-out from O(radios) to O(neighborhood).
  ///
  /// Contract: the filter must append each candidate at most once, in
  /// INCREASING RadioId order — delivery events for one frame share a
  /// timestamp, so their FIFO order (and hence every downstream RNG draw)
  /// is the order they were scheduled in, which the unfiltered path does
  /// in ascending radio id.
  using ReachFn = std::function<void(channel::Vec2 origin,
                                     std::vector<RadioId>& out)>;
  void set_reach_filter(ReachFn filter) { reach_ = std::move(filter); }

  /// Registers a radio; returns its id. `on_rx` fires at frame air-end for
  /// every audible frame (including frames addressed to others — that is
  /// monitor-mode overhearing). Radios start on channel 1.
  RadioId add_radio(PositionFn position, RxHandler on_rx);

  /// Retunes a radio. Frames are only audible between same-channel radios;
  /// a radio on kNoChannel hears nothing (mid-retune blackout). Implements
  /// the paper's §7 multi-channel discussion: putting adjacent APs on
  /// different channels removes their mutual interference but also their
  /// ability to overhear the client (uplink diversity, BA forwarding, CSI).
  static constexpr int kNoChannel = -1;
  void set_radio_channel(RadioId id, int channel);
  [[nodiscard]] int radio_channel(RadioId id) const;

  /// Medium-busy horizon as heard at `id`'s position: the latest air_end of
  /// any in-flight audible transmission, or now if idle.
  [[nodiscard]] Time busy_until(RadioId id) const;

  /// Starts a transmission of `duration` from radio `from`. The frame's
  /// air_start/air_end are filled in; delivery events are scheduled for all
  /// audible radios. Returns the transmission uid.
  std::uint64_t transmit(RadioId from, Frame frame, Time duration);

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] std::uint64_t frames_sent() const { return next_tx_uid_ - 1; }
  [[nodiscard]] std::uint64_t collisions_observed() const { return collisions_; }

 private:
  struct Radio {
    PositionFn position;
    RxHandler on_rx;
    int channel = 1;
  };
  struct Flight {
    std::uint64_t uid;
    RadioId from;
    channel::Vec2 origin;
    Time start;
    Time end;
    int channel = 1;
  };

  [[nodiscard]] bool audible(const Flight& f, channel::Vec2 at,
                             int rx_channel) const;
  void prune(Time now);
  void deliver(std::size_t r, const Frame& frame);

  sim::Scheduler& sched_;
  Config config_;
  PowerFn power_;
  ReachFn reach_;
  std::vector<RadioId> reach_scratch_;
  std::vector<Radio> radios_;
  std::vector<Flight> in_flight_;
  std::uint64_t next_tx_uid_ = 1;
  std::uint64_t collisions_ = 0;
};

}  // namespace wgtt::mac
