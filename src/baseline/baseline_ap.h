// A conventional enterprise Wi-Fi AP for the Enhanced 802.11r baseline
// (paper §5.1): its own BSSID, 100 ms beacons, association via management
// frames, and a deep per-client socket/driver buffer feeding the NIC queue.
//
// The "Enhanced" part (the paper's items (1)-(3)): association state is
// replicated through the distribution router so any AP can accept a
// re-association instantly, and APs relay overheard association requests to
// the target AP over the backhaul.
//
// What it deliberately lacks is WGTT's cross-AP queue management: when the
// client re-associates elsewhere, the backlog buffered here keeps being
// transmitted into a dying link until the retry limit discards it — the
// §2/§3 capacity-loss problem.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>

#include "mac/wifi_mac.h"
#include "net/backhaul.h"
#include "net/ids.h"
#include "net/messages.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace wgtt::baseline {

class BaselineAp {
 public:
  struct Config {
    mac::WifiMac::Config mac{};
    /// Socket + driver buffering above the NIC queue (the paper counts
    /// 1600-2000 backlogged packets at 50-90 Mbit/s across all layers).
    std::size_t socket_queue_capacity = 512;
    Time beacon_interval = Time::ms(100);
    Time pump_period = Time::ms(1);
  };

  struct Stats {
    std::uint64_t downlink_received = 0;
    std::uint64_t socket_drops = 0;
    std::uint64_t associations = 0;
    std::uint64_t relayed_assoc_reqs = 0;
  };

  BaselineAp(net::ApId id, sim::Scheduler& sched, mac::Medium& medium,
             net::Backhaul& backhaul, Rng rng, Config config,
             mac::Medium::PositionFn position);

  /// Pre-shares client identity (the paper's enhanced item (3)): the AP can
  /// accept this client instantly without an auth exchange.
  void learn_client(net::ClientId client, mac::RadioId radio);

  /// Radio -> AP directory for relaying overheard association requests.
  void set_ap_directory(
      std::function<std::optional<net::ApId>(mac::RadioId)> ap_of_radio);

  /// ViFi-style uplink salvaging (Balasubramanian et al., SIGCOMM 2008,
  /// cited in the paper's §6): when enabled, this AP forwards uplink data
  /// it overhears for *other* APs' clients to the router, which
  /// de-duplicates. Isolates the uplink-diversity ingredient of WGTT's
  /// design on top of an otherwise conventional handover network.
  void set_uplink_salvaging(bool enabled) { salvage_uplink_ = enabled; }

  [[nodiscard]] net::ApId id() const { return id_; }
  [[nodiscard]] mac::WifiMac& mac() { return mac_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool associated(net::ClientId client) const;
  [[nodiscard]] std::size_t backlog(net::ClientId client) const;

 private:
  struct ClientState {
    mac::RadioId radio{};
    bool associated = false;
    std::deque<net::Packet> socket_queue;
  };

  void handle_backhaul(net::NodeId from, net::BackhaulMessage msg);
  void handle_mgmt(mac::RadioId from, mac::MgmtFrame frame);
  void on_heard(const mac::Frame& frame);
  void accept_association(net::ClientId client);
  void pump(ClientState& cs);
  void pump_all();

  net::ApId id_;
  sim::Scheduler& sched_;
  net::Backhaul& backhaul_;
  Rng rng_;
  Config config_;
  mac::WifiMac mac_;
  bool salvage_uplink_ = false;
  std::function<std::optional<net::ApId>(mac::RadioId)> ap_of_radio_;
  std::unordered_map<net::ClientId, ClientState> clients_;
  std::unordered_map<mac::RadioId, net::ClientId> client_of_radio_;
  Stats stats_;
  std::unique_ptr<sim::Timer> pump_timer_;
};

}  // namespace wgtt::baseline
