// Fully wired WGTT network over the roadside testbed: scheduler, medium,
// backhaul, controller, eight WgttAps, and any number of mobile clients.
// This is the top-level object examples and benches instantiate.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ap/wgtt_ap.h"
#include "core/controller.h"
#include "core/domain_map.h"
#include "core/spatial_index.h"
#include "core/wgtt_client.h"
#include "mac/medium.h"
#include "net/backhaul.h"
#include "net/packet_pool.h"
#include "obs/metrics.h"
#include "scenario/testbed.h"
#include "sim/scheduler.h"

namespace wgtt::scenario {

/// Result of WgttSystem::check_invariants: what the switching protocol must
/// guarantee even when the backhaul drops, delays or duplicates control
/// messages. `violations` holds one human-readable line per breach.
struct InvariantReport {
  /// Clients whose outstanding switch has been pending longer than the
  /// stall bound — the retransmit chain should have completed or superseded
  /// it by then (a handful of 30 ms timeouts).
  int stalled_switches = 0;
  /// Clients served by more than one AP while no switch is in flight and
  /// the last one completed at least the grace period ago (residual-drain
  /// overlap during a switch is expected and excluded).
  int duplicate_serving = 0;
  /// Clients where the controller's view of the serving AP disagrees with
  /// the AP-side serving flags after quiesce.
  int serving_disagreements = 0;
  /// Sum of WgttAp::Stats::index_regressions over all APs: times a start
  /// rewound an already-serving drain pointer (the duplicate-StartMsg bug).
  std::uint64_t index_regressions = 0;
  /// Crashed APs whose MAC delivered an MPDU after the crash instant — a
  /// dead AP must deliver nothing.
  int dead_ap_deliveries = 0;
  /// Clients the controller still routes through an AP it has itself
  /// declared Dead for longer than the stall bound: forced failover (or
  /// degraded-mode unserve) should have moved them long before.
  int dead_serving = 0;
  /// Multi-domain rule: clients owned by more than one non-crashed
  /// controller with no handover in flight that could explain the overlap
  /// (split-brain the gossip reconciliation should have collapsed).
  int ownership_violations = 0;
  /// Multi-domain rule: clients no non-crashed controller owns and no
  /// handover is moving — after a failover settles, some surviving domain
  /// must have adopted them.
  int orphaned_clients = 0;
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Scripted faults for one AP (DESIGN.md §7). All events are wall-clock sim
/// times. An empty script list in the config schedules nothing and keeps
/// seeded runs byte-identical; a non-empty list auto-enables the
/// controller's liveness machinery.
struct ApFaultScript {
  int ap = 0;
  /// Hard crash: cyclic queues and ControlRecords wiped, radio off the air,
  /// backhaul link down.
  std::optional<Time> crash_at;
  /// Restart after a crash: link and radio restored, association state
  /// replayed from the replicated store, queues cold.
  std::optional<Time> restart_at;
  /// Zombie window: backhaul link dies but the radio keeps serving — the
  /// failure mode where the AP looks dead to the controller yet keeps
  /// transmitting stale backlog.
  std::optional<Time> zombie_at;
  std::optional<Time> zombie_end_at;
  /// Timed backhaul partition windows [from, until): link down, node state
  /// intact. Mechanically like a zombie window; kept separate so scripts
  /// read as what they model.
  std::vector<std::pair<Time, Time>> partitions;
};

/// Scripted faults for one controller domain (DESIGN.md §12). Fail-stop:
/// a crash takes the controller process and its backhaul port down
/// together; a restart comes back cold and re-learns ownership from peer
/// gossip. Only meaningful with num_domains > 1.
struct ControllerFaultScript {
  int domain = 0;
  std::optional<Time> crash_at;
  std::optional<Time> restart_at;
};

struct WgttSystemConfig {
  GeometryConfig geometry{};
  mac::Medium::Config medium{};
  net::Backhaul::Config backhaul{};
  core::Controller::Config controller{};
  ap::WgttAp::Config ap{};
  core::WgttClient::Config client{};
  /// One-way wire latency between the (local) server and the controller.
  Time server_latency = Time::ms(1);
  /// Channel reuse factor (paper §7 "Multi-channel settings"). 1 = the
  /// paper's single-channel deployment. N > 1 assigns AP i to channel
  /// i mod N; clients retune to follow their serving AP (with a brief
  /// blackout), and APs on other channels can no longer overhear the
  /// client — killing uplink diversity, BA forwarding and neighbour CSI.
  int channel_reuse = 1;
  /// Client retune blackout when following a cross-channel switch.
  Time retune_blackout = Time::micros(1500.0);
  /// Off-channel scan cadence in multi-channel mode: how often a client
  /// hops to another channel to announce itself (so that channel's APs can
  /// measure CSI on it), and how long it lingers there. Time spent off the
  /// serving channel is dead air for downlink — the structural cost the
  /// paper's §7 points at.
  Time scan_period = Time::ms(150);
  Time scan_dwell = Time::ms(8);
  /// Per-AP fault scripts. Empty (the default) schedules nothing — zero
  /// extra events, zero extra RNG draws, byte-identical seeded runs.
  std::vector<ApFaultScript> ap_faults;
  /// Controller domains (DESIGN.md §12). 1 (the default) instantiates the
  /// single legacy controller — no inter-controller traffic, no extra
  /// timers, byte-identical seeded runs. N > 1 splits the AP array into N
  /// contiguous segment-aligned domains and turns on inter-domain handover
  /// + controller-to-controller liveness.
  int num_domains = 1;
  /// Scripted controller crashes/restarts. Ignored with num_domains == 1.
  std::vector<ControllerFaultScript> controller_faults;
  /// Ignored. The downlink fan-out always acquires each packet once in the
  /// system-wide net::PacketPool and sends 4-byte refcounted handles
  /// (DESIGN.md §10); the field remains only so existing callers compile.
  bool use_fanout_pool = true;
};

class WgttSystem {
 public:
  explicit WgttSystem(const WgttSystemConfig& config);

  /// Adds a mobile client following `trajectory` (not owned; must outlive
  /// the system). Returns the client index.
  int add_client(const mobility::Trajectory* trajectory);

  /// Registers all clients at all APs (replicated association, §4.3) and
  /// starts their background probing. Call once after add_client calls.
  void start();

  /// Runs the simulation until `t`.
  void run_until(Time t) { sched_.run_until(t); }

  /// Wires every component (controller, APs, AP MACs, client MACs — also
  /// clients added afterwards) into `registry` and starts a periodic
  /// sampler that records system-wide queue-occupancy gauges every
  /// `sample_period`. The registry must outlive the system.
  void enable_metrics(obs::MetricsRegistry& registry,
                      Time sample_period = Time::ms(100));

  // --- server-side traffic attachment -------------------------------------
  /// Sends a downlink packet from the server (adds the wire latency).
  void server_send(net::Packet packet);
  /// De-duplicated uplink packets (minus background probes) arrive here
  /// after the wire latency.
  std::function<void(const net::Packet&)> on_server_uplink;

  // --- accessors ------------------------------------------------------------
  [[nodiscard]] sim::Scheduler& sched() { return sched_; }
  [[nodiscard]] Time now() const { return sched_.now(); }
  [[nodiscard]] TestbedGeometry& geometry() { return geometry_; }
  /// Domain 0's controller — the only one with num_domains == 1, so every
  /// legacy caller keeps working unchanged.
  [[nodiscard]] core::Controller& controller() { return *controllers_.front(); }
  [[nodiscard]] core::Controller& controller(int d) {
    return *controllers_.at(static_cast<std::size_t>(d));
  }
  [[nodiscard]] int num_domains() const {
    return static_cast<int>(controllers_.size());
  }
  /// The AP-to-domain partition; empty when num_domains == 1.
  [[nodiscard]] const core::DomainMap& domain_map() const { return domain_map_; }
  /// The domain the server currently routes client i's downlink through.
  [[nodiscard]] int owner_domain(int client) const {
    return owner_of_.at(static_cast<std::size_t>(client));
  }
  [[nodiscard]] ap::WgttAp& ap(int i) { return *aps_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] core::WgttClient& client(int i) {
    return *clients_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] int num_aps() const { return geometry_.num_aps(); }
  [[nodiscard]] int num_clients() const { return static_cast<int>(clients_.size()); }
  [[nodiscard]] mac::Medium& medium() { return medium_; }
  [[nodiscard]] net::Backhaul& backhaul() { return backhaul_; }
  /// AP index serving client i, or -1 before bootstrap.
  [[nodiscard]] int serving_ap(int client) const;
  /// Ground truth for the switching-accuracy metric: the AP with maximal
  /// instantaneous ESNR to client i. Only the neighborhood within sense
  /// range (plus margin) is evaluated — an AP the client cannot hear at all
  /// can never be the paper's "optimal AP" — and the nearest AP is the
  /// answer when the neighborhood is empty. Whenever the whole array is in
  /// range this is exactly TestbedGeometry::optimal_ap. Exact ESNR is
  /// computed only for APs whose ESNR ceiling can still beat the best found
  /// (pruned_argmax); the answer is the full scan's, ties to the lower
  /// index.
  [[nodiscard]] int optimal_ap(int client, Time now) const;
  /// The road-segment index over the AP positions.
  [[nodiscard]] const core::SpatialIndex& spatial_index() const {
    return spatial_index_;
  }
  /// The controller the server should route client c's traffic through:
  /// the last-announced owner, or the lowest-index alive controller when
  /// that domain is down (its adopter announces itself within a failover).
  /// check_invariants judges each client by this controller's view.
  [[nodiscard]] const core::Controller& route_controller(int client) const;
  /// The controller currently homing AP a (follows AdoptAp re-homing).
  [[nodiscard]] const core::Controller& ap_controller(std::size_t a) const;

  // --- fault orchestration --------------------------------------------------
  // Normally driven by the scripted schedule in `ap_faults`, public so tests
  // can inject faults at exact protocol states.
  /// Hard-crashes AP i: radio off the air, backhaul link down, volatile AP
  /// state wiped (WgttAp::crash).
  void crash_ap(int i);
  /// Restarts a crashed AP i: channel and link restored, WgttAp::restart.
  void restart_ap(int i);
  /// Takes AP i's backhaul link down/up without touching the node (zombie
  /// mode / partition): the radio keeps serving whatever it has.
  void set_ap_backhaul(int i, bool up);
  /// Fail-stop crash of controller domain d: backhaul port dark, volatile
  /// ownership/handover state wiped. No-op with num_domains == 1 intact —
  /// a single-controller deployment has no one to fail over to.
  void crash_controller(int d);
  /// Cold restart of a crashed controller: link restored, state re-learned
  /// from peer gossip; its home APs migrate back via AdoptAp.
  void restart_controller(int d);

  /// Checks the switching-protocol invariants at the current sim time (see
  /// InvariantReport). `stall_bound` is how long a pending switch may stay
  /// outstanding before it counts as stalled; `serving_grace` is how long
  /// after a completed switch the old AP may still be winding down before
  /// duplicate-serving counts as a breach.
  [[nodiscard]] InvariantReport check_invariants(
      Time stall_bound = Time::ms(300),
      Time serving_grace = Time::ms(60)) const;

 private:
  /// The link AP `ap` samples toward radio `peer`; nullopt unless `peer`
  /// is a client.
  [[nodiscard]] std::optional<LinkIndex> ap_link(int ap, mac::RadioId peer) const;
  /// The link client `client` samples toward radio `peer` (the nearest AP
  /// for the shared BSSID); nullopt unless `peer` is an AP.
  [[nodiscard]] std::optional<LinkIndex> client_link(int client,
                                                     mac::RadioId peer) const;
  [[nodiscard]] int nearest_ap(int client) const;
  /// Index of route_controller(client).
  [[nodiscard]] int route_domain(int client) const;

  WgttSystemConfig config_;
  Rng rng_;
  sim::Scheduler sched_;
  mac::Medium medium_;
  net::Backhaul backhaul_;
  // Shared downlink payload pool. Declared before the controllers and APs
  // so their queues (which hold pool references) are destroyed first.
  net::PacketPool payload_pool_;
  TestbedGeometry geometry_;
  core::SpatialIndex spatial_index_;
  mutable std::vector<int> spatial_scratch_;
  mutable std::vector<BoundedCandidate> probe_scratch_;
  core::DomainMap domain_map_;
  std::vector<std::unique_ptr<core::Controller>> controllers_;
  /// Server-side routing table, updated by Controller::on_ownership_changed.
  std::vector<int> owner_of_;
  std::vector<std::unique_ptr<ap::WgttAp>> aps_;
  std::vector<std::unique_ptr<core::WgttClient>> clients_;
  std::unordered_map<mac::RadioId, int> client_idx_of_radio_;
  std::unordered_map<mac::RadioId, int> ap_idx_of_radio_;
  std::unique_ptr<sim::Timer> channel_follow_timer_;
  std::vector<std::unique_ptr<sim::Timer>> scan_timers_;
  std::vector<bool> client_retuning_;
  std::vector<int> scan_next_offset_;
  std::vector<int> ap_channel_before_crash_;
  /// When the last scripted/injected controller crash or restart fired —
  /// check_invariants grants a settle window after it.
  std::optional<Time> last_controller_fault_;
  bool started_ = false;

  void sample_system_metrics();
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<sim::Timer> metrics_sampler_;
  Time metrics_sample_period_ = Time::ms(100);
};

}  // namespace wgtt::scenario
