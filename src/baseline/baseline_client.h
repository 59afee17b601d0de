// The mobile client of the Enhanced 802.11r baseline (paper §5.1), plus a
// "stock" 802.11r mode reproducing the paper's §2 motivation experiment.
//
// Enhanced mode (the paper's tuned comparison scheme):
//   (1) tracks per-AP RSSI from 100 ms beacons,
//   (2) re-associates to the strongest AP when the current AP's RSSI falls
//       below a threshold, with a 1 s time hysteresis,
//   (3) association requests may be relayed by any AP (state replication).
//
// Stock mode (the §2 Linksys experiment): the switching decision needs a
// 5 s RSSI history below threshold before it triggers — at 20 mph the
// client exits the cell before the history accumulates, and the handover
// never happens (Figure 4a).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mac/wifi_mac.h"
#include "mobility/trajectory.h"
#include "net/ids.h"
#include "net/packet.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace wgtt::baseline {

class BaselineClient {
 public:
  struct Config {
    mac::WifiMac::Config mac{};
    double rssi_threshold_dbm = -76.0;
    /// The paper's item (2) time hysteresis: the current AP's RSSI must
    /// have been below threshold for this long before the client moves
    /// (1 s enhanced; the stock §2 experiment uses a 5 s RSSI history).
    Time below_threshold_persistence = Time::sec(1);
    /// Minimum spacing between completed handovers (anti-ping-pong).
    Time min_switch_interval = Time::sec(1);
    double rssi_ewma_alpha = 0.4;
    Time assoc_retry_timeout = Time::ms(60);
    int assoc_max_retries = 5;
    Time evaluation_period = Time::ms(100);
    /// Beacon staleness horizon for considering an AP a candidate.
    Time beacon_staleness = Time::ms(600);
  };

  struct Stats {
    std::uint64_t handovers_attempted = 0;
    std::uint64_t handovers_completed = 0;
    std::uint64_t handovers_failed = 0;
    std::uint64_t assoc_req_sent = 0;
  };

  BaselineClient(net::ClientId id, sim::Scheduler& sched, mac::Medium& medium,
                 Rng rng, Config config, const mobility::Trajectory* trajectory);

  /// Uplink IP packet into the network (dropped if not associated).
  void send_uplink(net::Packet packet);

  /// Decoded downlink packets arrive here.
  std::function<void(const net::Packet&)> on_downlink;
  /// Fired when association moves to a new AP radio.
  std::function<void(mac::RadioId, Time)> on_associated;

  void start();

  [[nodiscard]] net::ClientId id() const { return id_; }
  [[nodiscard]] mac::WifiMac& mac() { return mac_; }
  [[nodiscard]] mac::RadioId radio() const { return radio_; }
  [[nodiscard]] std::optional<mac::RadioId> serving() const { return serving_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] channel::Vec2 position() const {
    return trajectory_->position(sched_.now());
  }

 private:
  struct ApRecord {
    Ewma rssi{0.4};
    Time last_beacon = Time::zero();
    Time below_threshold_since = Time::max();
    Time blacklist_until = Time::zero();
  };

  void on_heard(const mac::Frame& frame, const channel::CsiMeasurement& csi);
  void evaluate();
  void begin_association(mac::RadioId target);
  void send_assoc_req();
  void on_assoc_resp(mac::RadioId from);
  [[nodiscard]] std::optional<mac::RadioId> best_candidate() const;

  net::ClientId id_;
  sim::Scheduler& sched_;
  Config config_;
  const mobility::Trajectory* trajectory_;
  mac::WifiMac mac_;
  mac::RadioId radio_{};
  std::uint16_t next_ip_id_ = 1;

  std::unordered_map<mac::RadioId, ApRecord> aps_;
  std::optional<mac::RadioId> serving_;
  Time last_switch_ = Time::ms(-1'000'000);

  // In-progress association attempt.
  std::optional<mac::RadioId> assoc_target_;
  int assoc_tries_ = 0;
  std::unique_ptr<sim::Timer> assoc_timer_;
  std::unique_ptr<sim::Timer> eval_timer_;

  Stats stats_;
};

}  // namespace wgtt::baseline
