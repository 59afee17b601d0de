// The WGTT controller (paper §3, Figure 5): the paper's primary
// contribution lives here and in the WgttAp.
//
// Control plane: ingest CSI reports from every AP, compute ESNR, run the
// sliding-window-median AP selection, and drive the three-step switching
// protocol (stop / start / ack) with a 30 ms ack-timeout retransmission and
// an at-most-one-outstanding-switch guarantee per client.
//
// Data plane: fan each downlink packet out (tagged with the client's 12-bit
// index) to every AP that has recently heard the client; de-duplicate
// uplink packets forwarded by multiple APs using the 48-bit
// (source, IP-ID) key hashset (§3.2.2-§3.2.3).
//
// Liveness (DESIGN.md §7): one heartbeat state machine (Alive -> Suspect ->
// Dead -> Recovering) probes the APs (opt-in) and, with several domains, the
// peer controllers. Dead APs are evicted from the fan-out and the selection
// argmax, clients served by one are force-failed-over by bootstrapping a live
// AP from the controller's own index watermark, and AP readmission is
// flap-damped with exponential backoff.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/domain_map.h"
#include "core/esnr_tracker.h"
#include "core/penalty_timers.h"
#include "core/spatial_index.h"
#include "net/backhaul.h"
#include "net/ids.h"
#include "net/messages.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"

namespace wgtt::core {

class Controller {
 public:
  /// Link metric driving AP selection. The paper uses the window median of
  /// ESNR; kMeanRssi is the ablation (what RSSI-based selection would do).
  enum class SelectionMetric { kMedianEsnr, kMeanRssi };

  struct Config {
    SelectionMetric metric = SelectionMetric::kMedianEsnr;
    /// W, the AP-selection sliding window (paper §5.3.1: 10 ms optimal).
    Time selection_window = Time::ms(10);
    /// Minimum time between completed switches (paper §5.3.3 sweeps
    /// 40-120 ms; smaller is better down to this default).
    Time switch_hysteresis = Time::ms(40);
    /// stop/ack retransmission timeout (paper §3.1.2: 30 ms).
    Time ack_timeout = Time::ms(30);
    /// Freshness horizon for the downlink fan-out set.
    Time fanout_freshness = Time::ms(200);
    /// Bound on the de-duplication hashset.
    std::size_t dedup_capacity = 1 << 16;
    /// Require the challenger's median to beat the incumbent's by this many
    /// dB (0 = paper's pure argmax).
    double switch_margin_db = 0.0;
    /// A switch away from the serving AP requires either in-window CSI from
    /// it (so the comparison is real) or silence from it for this long.
    /// Guards against the degenerate first-report-wins decision right after
    /// an uplink lull, when the window holds a single AP's sample.
    Time serving_stale_timeout = Time::ms(250);

    // --- Spatial interest management (DESIGN.md §9) ---
    /// Bound the no-fresh-CSI downlink fallback to the spatial neighborhood
    /// of the client's anchor AP instead of broadcasting to every AP in the
    /// deployment. Needs set_spatial and at least one CSI report from the
    /// client (no anchor yet -> still all APs). Off by default: it changes
    /// behaviour after long silences, so only city-scale scenarios opt in.
    bool bounded_fallback = false;

    // --- AP liveness & forced failover (DESIGN.md §7) ---
    /// Master switch, off by default: heartbeats are extra backhaul traffic
    /// (they consume jitter RNG draws), so fault-free seeded runs stay
    /// byte-identical unless a scenario opts in.
    bool liveness_enabled = false;
    /// Heartbeat probe period per AP, and per peer controller when there
    /// are several domains.
    Time heartbeat_interval = Time::ms(25);
    /// Consecutive missed heartbeats before an AP or a peer is declared
    /// Dead. The first miss already demotes Alive -> Suspect.
    int heartbeat_miss_threshold = 3;
    /// Flap damping: a Dead AP that answers again waits this long before
    /// readmission, doubling per death up to the max.
    Time readmission_backoff = Time::ms(100);
    Time readmission_backoff_max = Time::ms(1600);
    /// On forced failover the new AP is bootstrapped from the controller's
    /// own fan-out watermark, rewound by this many indices so packets the
    /// dead AP accepted but never delivered are replayed. The client's
    /// duplicate suppression absorbs the overlap. An inter-domain handover
    /// pre-rewinds the transferred watermark by the same amount.
    std::uint16_t failover_replay = 32;

    // --- Multi-controller domains (DESIGN.md §12) ---
    struct DomainConfig {
      /// This controller's domain id (== its NodeId::controller index).
      std::uint32_t id = 0;
      /// Deployment-wide domain count. 1 (the default) keeps everything
      /// below inert: inter-controller traffic consumes RNG draws, so
      /// single-controller seeded runs stay byte-identical.
      std::uint32_t num_domains = 1;
      /// Per-message timeout of the handover state-transfer handshake; each
      /// retry doubles it (bounded retry budget, arXiv 2008.09438).
      Time handover_timeout = Time::ms(30);
      /// Attempts (first send + retries) before abort-to-source.
      int handover_max_retries = 4;
      /// Penalty bar on (client, target-domain) after a handover lands or
      /// aborts: no further attempt toward that domain until it expires
      /// (osmo-bsc penalty_timers).
      Time penalty_window = Time::ms(500);
      /// Epoch leap applied when adopting a crashed neighbor's client from
      /// gossiped state: must exceed any epochs the dead controller can have
      /// minted since its last gossip, or the adopter's bootstrap start is
      /// stale at the AP.
      std::uint32_t epoch_jump = 64;
      /// Most recent uplink dedup keys carried in the state transfer.
      std::size_t dedup_seed_max = 32;
      /// Ownership gossip period (crash-adoption bootstrap + split-brain
      /// reconciliation).
      Time sync_interval = Time::ms(100);
    };
    DomainConfig domains;
  };

  struct Stats {
    std::uint64_t csi_reports = 0;
    std::uint64_t downlink_packets = 0;
    std::uint64_t downlink_fanout_copies = 0;
    std::uint64_t uplink_packets = 0;
    std::uint64_t uplink_duplicates_dropped = 0;
    std::uint64_t switches_initiated = 0;
    std::uint64_t switches_completed = 0;
    std::uint64_t stop_retransmissions = 0;
    /// Downlink packets dropped because the fan-out set came up empty after
    /// the fallback and liveness eviction — every candidate AP was dead or
    /// recovering. Before this counter existed such packets vanished with
    /// no trace (the silent-drop bug fixed in PR 7).
    std::uint64_t fanout_empty_drops = 0;
    /// Acks whose (epoch, AP) did not match the outstanding switch:
    /// duplicates from a retransmit chain or leftovers of a superseded
    /// switch. Ignoring them is the fix for the stale-ack-completes-a-
    /// later-switch bug.
    std::uint64_t stale_acks_ignored = 0;
    // Liveness & failover (all zero while liveness is disabled).
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t heartbeat_acks = 0;
    std::uint64_t aps_marked_suspect = 0;
    std::uint64_t aps_marked_dead = 0;
    std::uint64_t aps_readmitted = 0;
    /// Switches minted because the serving (or pending) AP died, completed
    /// by bootstrapping the new AP from the controller's own watermark.
    std::uint64_t forced_failovers = 0;
    /// Serving AP died with no usable fallback in the selection window; the
    /// client is unserved until fresh CSI re-bootstraps it (degraded mode).
    std::uint64_t failovers_unserved = 0;
    /// Quench stops sent to a readmitted AP that may still believe it
    /// serves a client that was failed over away while it was dead.
    std::uint64_t quench_stops = 0;
    // Multi-controller domains (all zero in single-domain runs).
    std::uint64_t handover_requests = 0;   // handshakes initiated (as source)
    std::uint64_t handovers_out = 0;       // completed, ownership released
    std::uint64_t handovers_in = 0;        // accepted, ownership taken
    std::uint64_t handover_retries = 0;
    /// Retry budget exhausted (or target refused/died): ownership stays
    /// here and the target domain is penalty-barred.
    std::uint64_t handover_aborts = 0;
    /// Handover attempts suppressed by an armed penalty timer.
    std::uint64_t penalty_blocked = 0;
    std::uint64_t csi_forwarded = 0;       // cross-domain CSI relays
    std::uint64_t uplink_forwarded = 0;
    std::uint64_t downlink_forwarded = 0;
    /// Switch acks relayed to the owning domain (the acking AP is homed
    /// here, e.g. a returned stretch whose clients have not handed over yet).
    std::uint64_t switch_acks_forwarded = 0;
    /// Cross-domain traffic dropped because no alive believed owner exists
    /// (transient while ownership/gossip settles; never re-forwarded).
    std::uint64_t misrouted_dropped = 0;
    std::uint64_t peers_marked_dead = 0;
    std::uint64_t peers_recovered = 0;
    std::uint64_t aps_adopted = 0;
    std::uint64_t aps_returned = 0;
    std::uint64_t clients_adopted = 0;
    /// Adopted with no usable CSI anywhere: unserved until the re-homed
    /// APs' first reports re-bootstrap (degraded mode).
    std::uint64_t adopted_unserved = 0;
    /// Ownership released to a peer whose gossiped epoch was newer
    /// (split-brain reconciliation).
    std::uint64_t ownership_yields = 0;
  };

  struct SwitchRecord {
    Time initiated;
    Time completed;
    net::ClientId client;
    net::ApId from;
    net::ApId to;
  };

  /// `payload_pool` is the system-wide downlink payload pool (owned by the
  /// scenario; must outlive the controller): send_downlink acquires each
  /// packet once and fans out N refcounted 4-byte handles (DESIGN.md §10).
  Controller(sim::Scheduler& sched, net::Backhaul& backhaul,
             net::PacketPool& payload_pool, Config config);

  void add_ap(net::ApId ap);
  void add_client(net::ClientId client);

  /// Downlink entry point (the wired/server side hands packets here).
  void send_downlink(net::Packet packet);

  /// De-duplicated uplink packets exit here toward the server side.
  std::function<void(const net::Packet&)> on_uplink;

  /// Observation hook fired whenever the serving AP of a client changes
  /// (switch completion), for association-timeline plots (Figures 14/15/22).
  std::function<void(net::ClientId, net::ApId, Time)> on_serving_changed;

  /// Observation hook fired when a switch is initiated — a regular
  /// stop→start switch, the initial bootstrap, or a forced failover.
  /// Arguments: (client, old serving AP if any, target AP, time). Pairs
  /// with on_serving_changed to bracket the stop→start→ack span in traces.
  std::function<void(net::ClientId, std::optional<net::ApId>, net::ApId, Time)>
      on_switch_initiated;

  /// Observation hook fired when a downlink packet is dropped because the
  /// fan-out set was empty (see Stats::fanout_empty_drops).
  std::function<void(net::ClientId, Time)> on_fanout_empty;

  /// Wires the road-segment spatial index (owned by the scenario; must
  /// outlive the controller). With bounded_fallback, a packet for a client
  /// with no fresh CSI fans out to the APs within `neighbor_radius_m` of the
  /// client's anchor AP, looked up when the fallback happens. nullptr
  /// detaches.
  void set_spatial(const SpatialIndex* index, double neighbor_radius_m) {
    spatial_ = index;
    neighbor_radius_m_ = neighbor_radius_m;
  }

  /// Wires the deployment-wide domain map (owned by the scenario; must
  /// outlive the controller). Sizes the liveness/eviction arrays to the
  /// TOTAL AP count — forwarded CSI feeds foreign AP indices into this
  /// controller's tracker, so every per-AP-index array must cover them.
  /// No-op outside multi-domain mode.
  void set_domain_map(const DomainMap* map);

  /// Initial ownership, set by the scenario at build time: this controller
  /// owns the client iff `owner` is its own domain id; otherwise it records
  /// `owner` as the believed owner for cross-domain forwarding.
  void set_client_owner(net::ClientId client, std::uint32_t owner);

  /// Controller crash/restart (the fail-stop model): a crashed controller
  /// handles nothing, its timers stop, and its volatile state — ownership,
  /// pending handshakes, serving beliefs, peer liveness — is wiped. The
  /// scenario additionally takes the backhaul node down. Restart is cold:
  /// ownership beliefs are repopulated by peer gossip.
  void set_crashed(bool crashed);
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Observation hook fired when this controller takes or releases
  /// ownership of a client; the argument is the new owning domain. The
  /// scenario uses it to route server-side downlink.
  std::function<void(net::ClientId, std::uint32_t)> on_ownership_changed;

  [[nodiscard]] std::uint32_t domain_id() const { return config_.domains.id; }
  /// Does this controller currently own the client's control plane?
  [[nodiscard]] bool owns_client(net::ClientId client) const;
  /// Is an inter-domain handover of this client outstanding here (as the
  /// source)? Exempted from the single-owner invariant until it settles.
  [[nodiscard]] bool handover_pending(net::ClientId client) const;
  /// The domain this controller believes owns the client.
  [[nodiscard]] std::uint32_t believed_owner(net::ClientId client) const;
  /// This controller's view of a peer domain's liveness. Only a Dead peer
  /// is down: a Suspect one counts as alive, and a peer is readmitted as
  /// soon as it answers, so it never waits in Recovering.
  [[nodiscard]] bool peer_alive(std::uint32_t domain) const;
  /// Last time this controller changed its mind about a peer's liveness
  /// (marked dead or recovered). Failover/return churn is in flight until
  /// this has been quiet for a while; invariant checks exempt that window.
  [[nodiscard]] std::optional<Time> last_peer_transition() const {
    return last_peer_transition_;
  }
  /// APs this controller currently operates (home plus adopted).
  [[nodiscard]] const std::vector<net::ApId>& aps() const { return aps_; }

  /// Liveness verdict of a heartbeat target (an AP or a peer controller).
  /// Dead and Recovering APs are evicted from the downlink fan-out and the
  /// ESNR selection argmax; Suspect APs keep serving (one missed heartbeat
  /// is not evidence enough to abandon a good radio link).
  enum class ApLiveness : std::uint8_t { kAlive, kSuspect, kDead, kRecovering };
  struct ApHealth {
    ApLiveness state = ApLiveness::kAlive;
    Time since = Time::zero();  // when the AP entered this state
  };
  /// Health of one AP. Always Alive while liveness is disabled.
  [[nodiscard]] ApHealth ap_health(net::ApId ap) const;

  /// One client's switch state, declared once: the controller's per-client
  /// state derives from it, and client_debug() returns this slice. Exists
  /// for the post-mortem forensics dump and the timeline: when an invariant
  /// trips, the exact pending-switch bookkeeping (epoch, watermark, forced
  /// flag) is what distinguishes a stalled handshake from a lost ack or a
  /// rewound index.
  struct ClientDebug {
    std::uint16_t next_index = 0;     // 12-bit downlink index counter
    std::uint64_t downlink_sent = 0;  // total fanned out (clamps the replay)
    std::optional<net::ApId> serving;
    // In-progress switch (at most one outstanding per client).
    bool switch_pending = false;
    // The pending switch is a forced failover: the old AP is dead (or owned
    // by another domain), so every send of it is a start to the new AP
    // rather than a stop the old one can never answer.
    bool pending_forced = false;
    net::ApId pending_target{};
    net::ApId pending_from{};
    Time pending_since;
    // Per-client switch-epoch counter; the pending switch carries the
    // latest minted value and the ack must echo it.
    std::uint32_t epoch = 0;
    // Fan-out index captured when the switch was initiated. Retransmitted
    // starts must resend THIS, not the since-advanced next_index, or every
    // packet fanned out between initiation and retransmit is silently
    // skipped.
    std::uint16_t pending_first_index = 0;
    Time last_switch_completed = Time::ms(-1'000'000);
  };
  /// Snapshot of one client's switch state; nullopt for an unregistered
  /// client.
  [[nodiscard]] std::optional<ClientDebug> client_debug(
      net::ClientId client) const;

  [[nodiscard]] std::optional<net::ApId> serving_ap(net::ClientId client) const;
  /// Initiation time of the client's outstanding switch, if one is pending.
  /// The invariant checker uses this to detect permanently stalled clients.
  [[nodiscard]] std::optional<Time> pending_switch_since(
      net::ClientId client) const;
  /// Completion time of the client's last switch (a large negative sentinel
  /// before the first one completes).
  [[nodiscard]] Time last_switch_completed(net::ClientId client) const;
  [[nodiscard]] const std::vector<SwitchRecord>& switch_log() const {
    return switch_log_;
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] EsnrTracker& tracker() { return tracker_; }
  [[nodiscard]] const EsnrTracker& tracker() const { return tracker_; }

  /// Registers and starts recording `controller.*` metrics (selection
  /// decisions, de-dup hit/miss and table occupancy, switch-phase timing).
  /// nullptr detaches. Instrument pointers resolve once, here — the data
  /// path only pays a null check plus relaxed increments.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  // One client's multi-domain state, allocated only when num_domains > 1.
  struct DomainClient {
    bool owned = true;                // this domain owns the control plane
    std::uint32_t owner_domain = 0;   // believed owner (== domains.id if us)
    // Outstanding inter-domain handover (as the source domain).
    bool ho_pending = false;
    std::uint32_t ho_target_domain = 0;
    net::ApId ho_target_ap{};
    std::uint32_t ho_seq = 0;
    int ho_attempts = 0;
    Time ho_started;
    Time ho_timeout;                  // current (backed-off) retry timeout
    std::unique_ptr<sim::Timer> ho_timer;
    // Target-side idempotency: the last accepted transfer, so a
    // retransmitted request replays the ack instead of re-bootstrapping.
    bool ho_acc_valid = false;
    std::uint32_t ho_acc_seq = 0;
    std::uint32_t ho_acc_src = 0;
    // Last-gossiped state while the client is believed owned elsewhere; the
    // crash-adoption bootstrap reads it.
    std::optional<net::DomainSync::Entry> gossip;
  };
  struct ClientState : ClientDebug {
    std::unique_ptr<sim::Timer> ack_timer;
    // Slab bookkeeping: slots exist for every client index up to the
    // highest registered one; only registered slots are live.
    bool registered = false;
    std::unique_ptr<DomainClient> domain;  // null with one domain
    // Does this controller own the control plane? Always, with one domain.
    [[nodiscard]] bool owned() const { return !domain || domain->owned; }
  };
  struct Metrics;

  void handle_backhaul(net::NodeId from, net::BackhaulMessage msg);
  void handle_csi(const net::CsiReport& report);
  void process_csi(const net::CsiReport& report, ClientState& cs);
  void handle_uplink(net::UplinkData&& msg);
  void handle_switch_ack(const net::SwitchAck& msg);
  void maybe_switch(net::ClientId client, ClientState& cs);
  /// Does `challenger` clear the bar to replace the serving AP: hysteresis,
  /// the serving-stale timeout and the margin? Requires cs.serving.
  [[nodiscard]] bool may_replace_serving(net::ClientId client,
                                         const ClientState& cs,
                                         net::ApId challenger);
  /// Opens the client's one outstanding switch toward `target` under the
  /// epoch the caller has already minted, sends its first message and arms
  /// the ack timer. `first_index` is where a start resumes the fan-out; a
  /// forced switch (the old AP is dead or another domain's) always starts.
  void begin_switch(net::ClientId client, ClientState& cs, net::ApId target,
                    bool forced, std::uint16_t first_index);
  /// Sends the pending switch's message: a stop to the serving AP, or a
  /// start to the target when unserved or forced. First send and ack-timer
  /// retransmissions alike.
  void send_switch(net::ClientId client, const ClientState& cs);
  /// Closes the pending switch (if any) without completing it.
  void end_switch(ClientState& cs);
  [[nodiscard]] bool dedup_accept(const net::Packet& p);
  /// Inserts a de-dup key; false if it was already present.
  bool dedup_insert(std::uint64_t key);

  // Multi-domain machinery (no-ops while multi_domain() is false).
  [[nodiscard]] bool multi_domain() const {
    return config_.domains.num_domains > 1;
  }
  [[nodiscard]] net::NodeId self_node() const {
    return net::NodeId::controller(config_.domains.id);
  }
  void consider_handover(net::ClientId client, ClientState& cs,
                         net::ApId target, std::uint32_t target_domain);
  void initiate_handover(net::ClientId client, ClientState& cs,
                         net::ApId target, std::uint32_t target_domain);
  void send_handover_request(net::ClientId client, ClientState& cs);
  void abort_handover(net::ClientId client, DomainClient& dc);
  /// Closes the outstanding handover (if any) without completing it.
  void end_handover(DomainClient& dc);
  void handle_handover_request(net::HandoverRequest&& msg);
  void handle_handover_ack(const net::HandoverAck& msg);
  [[nodiscard]] std::vector<std::uint32_t> collect_dedup_seed(
      net::ClientId client) const;
  /// Relays `msg` once to the client's believed owner, counting it in
  /// `stat` and `counter`; counted as misrouted when no alive owner exists.
  void relay_to_owner(const DomainClient& dc, net::BackhaulMessage msg,
                      std::uint64_t& stat, obs::Counter* Metrics::*counter);
  void count_misrouted();
  void domain_sync_tick();
  [[nodiscard]] net::DomainSync build_domain_sync() const;
  void handle_domain_sync(const net::DomainSync& msg);
  void peer_dead(std::uint32_t domain);
  void peer_recovered(std::uint32_t domain);
  /// Adopt every un-adopted dead domain whose nearest alive controller is
  /// this one (re-run on each death so chained crashes resolve).
  void reevaluate_adoptions();
  void adopt_domain(std::uint32_t dead);
  void adopt_client(net::ClientId client, ClientState& cs);
  void return_domain(std::uint32_t recovered);

  // The heartbeat state machine, one LivenessState per target: the AP table
  // is indexed by AP index, the peer table by domain id (self unused).
  struct LivenessState {
    ApLiveness state = ApLiveness::kAlive;
    Time since = Time::zero();     // when the target entered this state
    int misses = 0;
    std::uint32_t seq = 0;         // seq of the most recent probe
    Time sent_at = Time::zero();
    bool answered = true;          // an answer arrived since the last probe
    Time backoff = Time::zero();   // current readmission delay
    Time readmit_at = Time::zero();
    void enter(ApLiveness to, Time now) { state = to; since = now; }
  };
  /// The target's entry in the AP or the peer table; nullptr if it has none.
  [[nodiscard]] LivenessState* liveness_of(net::NodeId target);
  /// Judges the target's last probe (a miss, a death), readmits it if its
  /// backoff has run out, then sends the next probe.
  void probe(net::NodeId target);
  /// Records an answer from the target; a Dead target starts recovering.
  void answer(net::NodeId target, std::uint32_t seq);
  /// Readmits a Recovering target whose backoff has run out.
  void readmit_if_due(net::NodeId target, LivenessState& ls);
  void mark_dead(net::ApId ap);
  void readmit(net::ApId ap);
  void force_failover(net::ClientId client, ClientState& cs);
  void quench_orphan(net::ApId ap, net::ClientId client);
  [[nodiscard]] ClientState* state(net::ClientId client);
  [[nodiscard]] const ClientState* state(net::ClientId client) const;
  [[nodiscard]] bool ap_usable(net::ApId ap) const;
  /// Sizes every per-AP-index array to at least `n` APs.
  void cover_aps(std::size_t n);
  [[nodiscard]] const std::vector<bool>* eviction_mask() const {
    return config_.liveness_enabled ? &ap_evicted_ : nullptr;
  }

  sim::Scheduler& sched_;
  net::Backhaul& backhaul_;
  net::PacketPool& payload_pool_;
  Config config_;
  EsnrTracker tracker_;
  std::vector<net::ApId> aps_;
  // Per-client state lives in a dense slab indexed by net::index_of(client)
  // (client ids are dense join-order integers), so the hot-path lookup is
  // an array index instead of a hash probe.
  std::vector<ClientState> clients_;

  // Spatial interest management (set_spatial): the bounded fallback's
  // neighborhood query.
  const SpatialIndex* spatial_ = nullptr;
  double neighbor_radius_m_ = 0.0;

  // AP liveness, indexed by AP index. ap_evicted_ mirrors
  // (state == Dead || state == Recovering) so the hot paths test one bit.
  std::vector<LivenessState> liveness_;
  std::vector<bool> ap_evicted_;
  // Clients failed over away while the AP was dead; quenched with a stop at
  // readmission in case the AP (a zombie) still believes it serves.
  std::vector<std::vector<net::ClientId>> orphaned_;
  std::unique_ptr<sim::Timer> heartbeat_timer_;

  // Multi-domain state (empty / null in single-domain mode).
  const DomainMap* domain_map_ = nullptr;
  std::vector<LivenessState> peers_;   // peer liveness, by domain id
  std::vector<bool> adopted_by_me_;    // dead domains whose APs we operate
  std::optional<Time> last_peer_transition_;
  std::unique_ptr<sim::Timer> peer_heartbeat_timer_;
  std::unique_ptr<sim::Timer> domain_sync_timer_;
  PenaltyTimers penalty_;
  std::uint32_t ho_seq_counter_ = 0;
  bool crashed_ = false;

  // Bounded FIFO hashset for uplink de-dup (48-bit key: client | ip_id).
  std::unordered_set<std::uint64_t> dedup_set_;
  std::deque<std::uint64_t> dedup_fifo_;

  std::vector<SwitchRecord> switch_log_;
  Stats stats_;

  struct Metrics {
    obs::Counter* csi_reports;
    obs::Counter* selection_evaluations;
    obs::Counter* switches_initiated;
    obs::Counter* switches_completed;
    obs::Counter* stop_retransmissions;
    obs::Counter* stale_acks_ignored;
    obs::Counter* downlink_packets;
    obs::Counter* fanout_copies;
    obs::Counter* fanout_empty_drops;
    obs::Counter* uplink_packets;
    obs::Counter* dedup_hits;    // duplicate found in the table and dropped
    obs::Counter* dedup_misses;  // new key accepted
    obs::Gauge* dedup_table_size;
    obs::Histogram* switch_time_ms;  // stop sent -> ack received (Table 1)
    // Liveness instruments; registered (and non-null) only when liveness is
    // enabled so fault-free snapshots keep the identical key set.
    obs::Counter* ap_marked_dead = nullptr;
    obs::Counter* ap_readmitted = nullptr;
    obs::Counter* forced_failovers = nullptr;
    obs::Histogram* heartbeat_rtt_ms = nullptr;
    // Multi-domain instruments; registered only in multi-domain mode so
    // single-domain snapshots keep the identical key set.
    obs::Counter* handover_requests = nullptr;
    obs::Counter* handovers_out = nullptr;
    obs::Counter* handovers_in = nullptr;
    obs::Counter* handover_retries = nullptr;
    obs::Counter* handover_aborts = nullptr;
    obs::Counter* penalty_blocked = nullptr;
    obs::Counter* csi_forwarded = nullptr;
    obs::Counter* uplink_fwd = nullptr;
    obs::Counter* downlink_fwd = nullptr;
    obs::Counter* switch_acks_fwd = nullptr;
    obs::Counter* misrouted_dropped = nullptr;
    obs::Counter* peers_marked_dead = nullptr;
    obs::Counter* aps_adopted = nullptr;
    obs::Counter* clients_adopted = nullptr;
    obs::Counter* ownership_yields = nullptr;
    obs::Histogram* handover_ms = nullptr;
  };
  std::optional<Metrics> metrics_;
};

}  // namespace wgtt::core
