// The WGTT access point (paper §3, §4.2).
//
// Data plane: downlink packets arrive from the controller tagged with the
// client's 12-bit index and land in the per-client cyclic queue. If this AP
// is the client's serving AP, packets are pumped in index order into the
// NIC hardware queue (the WifiMac), which aggregates and transmits them.
// Non-serving APs accumulate the same packets silently, ready to take over.
//
// Control plane: the three-step switching protocol.
//   stop(c)      controller -> old AP   : cease sending; report first unsent
//   start(c, k)  old AP -> new AP       : resume from index k
//   ack          new AP -> controller   : switch complete
// Control messages bypass the data path (the paper prioritizes them in
// Click); their processing delays are modelled explicitly and calibrated to
// the paper's Table 1 (~17 ms end-to-end).
//
// Monitor mode: every AP overhears the client's block ACKs; when a BA is
// addressed to a different AP, it is forwarded there over the backhaul
// (§3.2.1). The receiving AP de-duplicates (it may have decoded the same BA
// itself, or receive copies from several APs) and merges the bitmap into
// its transmit scoreboard. CSI from every decoded client frame is reported
// to the controller (§3.1.1).
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ap/cyclic_queue.h"
#include "mac/wifi_mac.h"
#include "net/backhaul.h"
#include "net/ids.h"
#include "net/messages.h"
#include "net/packet_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span_timer.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace wgtt::ap {

class WgttAp {
 public:
  struct Config {
    mac::WifiMac::Config mac{};
    /// Userspace (Click) handling of a prioritized control packet.
    Time control_processing_mean = Time::micros(2500);
    Time control_processing_std = Time::micros(800);
    /// ioctl round trip to read the first-unsent index from the kernel and
    /// install the per-client filter (paper §3.1.2 "Implementing the
    /// switch").
    Time ioctl_query_mean = Time::micros(9000);
    Time ioctl_query_std = Time::micros(2500);
    /// New AP's processing between start(c, k) and resuming transmission.
    Time start_processing_mean = Time::micros(5000);
    Time start_processing_std = Time::micros(1800);
    /// Pump poll period (covers hw-queue space freed by retry drops).
    Time pump_period = Time::ms(1);
    /// Packets older than this are discarded instead of transmitted. Guards
    /// against replaying stale cyclic-queue slots after this AP re-enters
    /// the fan-out set (the 12-bit ring cannot distinguish a slot written
    /// one lap ago from a fresh one).
    Time cyclic_staleness = Time::ms(500);
    /// Ablation: ignore the start(c, k) index and resume from the newest
    /// buffered packet instead — i.e. a handover *without* the paper's
    /// cross-AP queue management. The backlog between k and newest is lost.
    bool start_from_newest = false;
  };

  struct Stats {
    std::uint64_t downlink_received = 0;
    std::uint64_t stops_handled = 0;
    std::uint64_t starts_handled = 0;
    /// Retransmitted stops answered by replaying the recorded start (same
    /// epoch, same first-unsent index — no kernel re-query).
    std::uint64_t stop_duplicates = 0;
    /// Retransmitted starts answered by replaying the ack (no serving or
    /// next_index change).
    std::uint64_t start_duplicates = 0;
    /// Stop/start messages discarded because their epoch predates the
    /// newest one seen for that client.
    std::uint64_t stale_control_ignored = 0;
    /// Times applying a start moved an already-serving drain pointer
    /// backward in 12-bit space — the duplicate-StartMsg rewind bug. The
    /// epoch guard makes this unreachable; the invariant checker asserts
    /// it stays zero.
    std::uint64_t index_regressions = 0;
    std::uint64_t csi_reports_sent = 0;
    std::uint64_t uplink_forwarded = 0;
    std::uint64_t ba_forwarded = 0;
    std::uint64_t ba_forward_received = 0;
    std::uint64_t ba_forward_duplicate = 0;
    std::uint64_t stale_dropped = 0;
    std::uint64_t heartbeats_answered = 0;
    /// AdoptAp messages that re-homed this AP to a different controller
    /// domain (controller failover or recovery).
    std::uint64_t adoptions = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    /// Times a new-epoch start pointed behind an already-serving drain
    /// pointer and was clamped forward (a forced-failover start racing a
    /// stop that died with the backhaul link). Re-sending from behind the
    /// pointer would duplicate everything already delivered since.
    std::uint64_t starts_clamped_forward = 0;
  };

  /// `payload_pool` is the system-wide downlink payload pool (owned by the
  /// scenario; must outlive the AP). The controller's DownlinkData handles
  /// land in cyclic queues backed by it, and every path that discards one
  /// (unknown client, crashed AP) drops its reference.
  WgttAp(net::ApId id, sim::Scheduler& sched, mac::Medium& medium,
         net::Backhaul& backhaul, net::PacketPool& payload_pool, Rng rng,
         Config config, mac::Medium::PositionFn position);

  /// Maps a peer radio to the owning AP, for BA forwarding (the overheard
  /// BA's destination address names the serving AP's radio). Wired by the
  /// scenario.
  void set_ap_directory(
      std::function<std::optional<net::ApId>(mac::RadioId)> ap_of_radio);

  /// Replicated association state (paper §4.3): makes the client a MAC peer
  /// with an ESNR-driven rate controller.
  void register_client(net::ClientId client, mac::RadioId radio);

  /// Disable/enable block-ACK forwarding (ablation).
  void set_ba_forwarding(bool enabled) { ba_forwarding_ = enabled; }
  /// Disable CSI reporting (ablation; starves the controller's selector).
  void set_csi_reporting(bool enabled) { csi_reporting_ = enabled; }

  /// Hard crash: every per-client cyclic queue, drain pointer, and
  /// ControlRecord is wiped (volatile state dies with the process), the NIC
  /// queues are flushed, and the pump stops. The scenario additionally
  /// takes the radio off the air and the backhaul link down — the AP itself
  /// models only its own lost state.
  void crash();
  /// Restart after a crash: the AP rejoins with cold queues. Association
  /// state needs no re-handshake — the shared-BSSID replication (paper
  /// §4.3) means registered clients are re-read from the replicated store,
  /// which register_client already populated.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }
  /// MAC-level delivered-MPDU count snapshotted at the moment of the last
  /// crash; while the AP is down this must not advance (a Dead AP delivers
  /// nothing), which check_invariants asserts.
  [[nodiscard]] std::uint64_t delivered_at_crash() const {
    return delivered_at_crash_;
  }

  [[nodiscard]] net::ApId id() const { return id_; }
  [[nodiscard]] mac::WifiMac& mac() { return mac_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool serving(net::ClientId client) const;
  /// Clients this AP currently serves, ordered by client index. Kept
  /// incrementally at the serving transitions so the pump loop and the
  /// invariant checker's serving-count aggregation never scan the full
  /// per-client map (which holds every registered client at city scale).
  [[nodiscard]] const std::vector<net::ClientId>& serving_clients() const {
    return serving_clients_;
  }
  /// Backlog currently held for `client` in the cyclic queue.
  [[nodiscard]] std::size_t cyclic_backlog(net::ClientId client) const;
  /// Adds this AP's total cyclic backlog and NIC hardware-queue depth over
  /// every registered client to the two accumulators — one pass for the
  /// system-wide gauges instead of two map lookups per (AP, client) pair.
  void queue_totals(std::size_t& cyclic_backlog_total,
                    std::size_t& hw_queue_total) const;

  /// The controller address this AP reports to (uplink, CSI, switch acks,
  /// heartbeat echoes). Defaults to the legacy single-controller address;
  /// re-pointed by the scenario at domain build time and by an AdoptAp
  /// message when a neighbor controller adopts this AP after a crash.
  void set_controller_node(net::NodeId node) { controller_node_ = node; }
  [[nodiscard]] net::NodeId controller_node() const { return controller_node_; }

  /// Registers and starts recording `ap.*` metrics (cyclic-queue depth and
  /// overwrites, BA-forward traffic, the per-AP legs of the switch
  /// protocol). Instruments are shared by name, so every AP aggregates into
  /// the same `ap.*` series. nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  /// Which side of the handshake the newest epoch put this AP on. An epoch
  /// names exactly one switch, and one AP sees either its stop (it is the
  /// old AP) or its start (it is the new AP), never both.
  enum class CtlOp : std::uint8_t { kNone, kStop, kStart };

  /// Per-client epoch guard for the switching handshake: the newest epoch
  /// seen plus the recorded answer, so retransmitted control messages are
  /// answered idempotently and stale ones are discarded.
  struct ControlRecord {
    bool have_epoch = false;
    std::uint32_t epoch = 0;  // newest stop/start epoch seen
    CtlOp op = CtlOp::kNone;
    net::ApId stop_new_ap{};
    /// First-unsent index recorded when the stop's kernel query answered;
    /// a retransmitted stop replays this instead of re-querying (the live
    /// next_index belongs to a drain that may have moved on).
    std::optional<std::uint16_t> stop_first_unsent;
    bool start_acked = false;
  };

  struct ClientState {
    ClientState(mac::RadioId r, net::PacketPool* pool) : radio(r), queue(pool) {}
    mac::RadioId radio{};
    CyclicQueue queue;
    bool serving = false;
    std::uint16_t next_index = 0;  // next index to push toward the NIC
    ControlRecord ctl;
    obs::FlightRecorder<std::uint64_t> seen_ba_uids{64};
  };

  void handle_backhaul(net::NodeId from, net::BackhaulMessage msg);
  void handle_downlink(net::DownlinkData&& msg);
  void handle_stop(const net::StopMsg& msg);
  void handle_start(const net::StartMsg& msg);
  void handle_ba_forward(const net::BlockAckForward& msg);
  void on_heard(const mac::Frame& frame, const channel::CsiMeasurement& csi);
  void pump(ClientState& cs);
  void pump_all();
  /// Single point through which cs.serving ever changes, keeping the sorted
  /// serving_clients_ list exact.
  void set_serving(ClientState& cs, net::ClientId client, bool serving);
  ClientState* client_state(net::ClientId client);
  [[nodiscard]] bool ba_seen(ClientState& cs, std::uint64_t uid);
  [[nodiscard]] Time draw_delay(Time mean, Time std);

  net::ApId id_;
  sim::Scheduler& sched_;
  net::Backhaul& backhaul_;
  net::NodeId controller_node_ = net::NodeId::controller();
  Rng rng_;
  Config config_;
  mac::WifiMac mac_;
  std::function<std::optional<net::ApId>(mac::RadioId)> ap_of_radio_;
  /// Backs every per-client cyclic queue on this AP.
  net::PacketPool& payload_pool_;
  std::unordered_map<net::ClientId, ClientState> clients_;
  std::unordered_map<mac::RadioId, net::ClientId> client_of_radio_;
  /// Clients with cs.serving == true, sorted by client index (see
  /// serving_clients()); maintained only through set_serving.
  std::vector<net::ClientId> serving_clients_;
  bool ba_forwarding_ = true;
  bool csi_reporting_ = true;
  bool crashed_ = false;
  std::uint64_t delivered_at_crash_ = 0;
  Stats stats_;
  std::unique_ptr<sim::Timer> pump_timer_;

  struct Metrics {
    obs::Counter* downlink_received;
    obs::Counter* cyclic_overwrites;  // ring lapped an undrained slot
    obs::Counter* stale_dropped;
    obs::Counter* pump_enqueued;
    obs::Counter* stops_handled;
    obs::Counter* starts_handled;
    obs::Counter* stop_duplicates;
    obs::Counter* start_duplicates;
    obs::Counter* stale_control_ignored;
    obs::Counter* ba_forwarded;
    obs::Counter* ba_forward_received;
    obs::Counter* ba_forward_duplicate;
    obs::Counter* csi_reports_sent;
    obs::Counter* uplink_forwarded;
    obs::Histogram* cyclic_occupancy;  // sampled per downlink arrival
    // The two AP-side legs of Table 1's switch-time breakdown.
    obs::SpanTracker stop_to_start;  // stop received -> start sent (old AP)
    obs::SpanTracker start_to_ack;   // start received -> ack sent (new AP)
  };
  std::optional<Metrics> metrics_;
};

}  // namespace wgtt::ap
