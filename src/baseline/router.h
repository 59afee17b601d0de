// The baseline network's distribution system: a thin WLAN router that
// forwards each client's downlink traffic to the AP the client is currently
// associated with (learned from AssocSync), and passes uplink packets to
// the server side. It occupies the controller's backhaul address — in the
// baseline there is no WGTT controller, just ordinary switching.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/backhaul.h"
#include "net/ids.h"
#include "net/messages.h"
#include "net/packet_pool.h"
#include "sim/scheduler.h"

namespace wgtt::baseline {

class Router {
 public:
  struct Stats {
    std::uint64_t downlink_packets = 0;
    std::uint64_t downlink_dropped_unassociated = 0;
    std::uint64_t uplink_packets = 0;
    std::uint64_t uplink_duplicates_dropped = 0;
    std::uint64_t association_moves = 0;
  };

  /// `payload_pool` holds the downlink payloads in flight to the APs; it
  /// must outlive the backhaul's last delivery.
  Router(sim::Scheduler& sched, net::Backhaul& backhaul,
         net::PacketPool& payload_pool);

  void add_ap(net::ApId ap);
  void add_client(net::ClientId client);

  /// Downlink entry point from the server side.
  void send_downlink(net::Packet packet);

  /// Uplink exit toward the server side.
  std::function<void(const net::Packet&)> on_uplink;
  /// Association change observation hook (for the association timelines).
  std::function<void(net::ClientId, net::ApId, Time)> on_association;

  [[nodiscard]] std::optional<net::ApId> associated_ap(net::ClientId c) const;
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<net::ApId>& aps() const { return aps_; }

 private:
  void handle_backhaul(net::NodeId from, net::BackhaulMessage msg);

  [[nodiscard]] bool dedup_accept(const net::Packet& p);

  sim::Scheduler& sched_;
  net::Backhaul& backhaul_;
  net::PacketPool& payload_pool_;
  std::vector<net::ApId> aps_;
  std::unordered_map<net::ClientId, net::ApId> assoc_;
  // Bounded de-dup set, needed once ViFi-style salvaging fans uplink
  // packets in through several APs.
  std::unordered_set<std::uint64_t> dedup_set_;
  std::deque<std::uint64_t> dedup_fifo_;
  Stats stats_;
};

}  // namespace wgtt::baseline
