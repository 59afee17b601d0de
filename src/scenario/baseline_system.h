// Fully wired Enhanced 802.11r network over the same roadside testbed
// geometry as WgttSystem: router, eight BaselineAps, mobile clients with
// the beacon-driven handover state machine. Same-seed runs see the same
// radio environment as the WGTT system, making the comparison paired.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "baseline/baseline_ap.h"
#include "baseline/baseline_client.h"
#include "baseline/router.h"
#include "mac/medium.h"
#include "net/backhaul.h"
#include "net/packet_pool.h"
#include "scenario/testbed.h"
#include "sim/scheduler.h"

namespace wgtt::scenario {

struct BaselineSystemConfig {
  GeometryConfig geometry{};
  mac::Medium::Config medium{};
  net::Backhaul::Config backhaul{};
  baseline::BaselineAp::Config ap{};
  baseline::BaselineClient::Config client{};
  Time server_latency = Time::ms(1);
  /// ViFi-style uplink salvaging on every AP (paper §6 related work):
  /// non-serving APs forward overheard uplink data; the router
  /// de-duplicates. Adds WGTT's uplink-diversity ingredient to an
  /// otherwise conventional handover network.
  bool vifi_uplink_salvage = false;
};

class BaselineSystem {
 public:
  explicit BaselineSystem(const BaselineSystemConfig& config);

  int add_client(const mobility::Trajectory* trajectory);
  void start();
  void run_until(Time t) { sched_.run_until(t); }

  void server_send(net::Packet packet);
  std::function<void(const net::Packet&)> on_server_uplink;

  [[nodiscard]] sim::Scheduler& sched() { return sched_; }
  [[nodiscard]] Time now() const { return sched_.now(); }
  [[nodiscard]] TestbedGeometry& geometry() { return geometry_; }
  [[nodiscard]] baseline::Router& router() { return *router_; }
  [[nodiscard]] baseline::BaselineAp& ap(int i) {
    return *aps_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] baseline::BaselineClient& client(int i) {
    return *clients_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] int num_aps() const { return geometry_.num_aps(); }
  [[nodiscard]] int num_clients() const { return static_cast<int>(clients_.size()); }
  [[nodiscard]] mac::Medium& medium() { return medium_; }
  /// AP index the client is associated with, or -1.
  [[nodiscard]] int serving_ap(int client) const;

 private:
  /// The link AP `ap` samples toward radio `peer`; nullopt unless `peer`
  /// is a client.
  [[nodiscard]] std::optional<LinkIndex> ap_link(int ap, mac::RadioId peer) const;
  /// The link client `client` samples toward radio `peer`; nullopt unless
  /// `peer` is an AP.
  [[nodiscard]] std::optional<LinkIndex> client_link(int client,
                                                     mac::RadioId peer) const;

  BaselineSystemConfig config_;
  Rng rng_;
  sim::Scheduler sched_;
  mac::Medium medium_;
  // The router's downlink payloads; declared before the backhaul so
  // messages still in flight drop their references into a live pool.
  net::PacketPool payload_pool_;
  net::Backhaul backhaul_;
  TestbedGeometry geometry_;
  std::unique_ptr<baseline::Router> router_;
  std::vector<std::unique_ptr<baseline::BaselineAp>> aps_;
  std::vector<std::unique_ptr<baseline::BaselineClient>> clients_;
  std::unordered_map<mac::RadioId, int> client_idx_of_radio_;
  std::unordered_map<mac::RadioId, int> ap_idx_of_radio_;
  bool started_ = false;
};

}  // namespace wgtt::scenario
