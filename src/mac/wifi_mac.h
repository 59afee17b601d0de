// 802.11n MAC entity: one radio on the shared Medium.
//
// Implements DCF contention (DIFS + binary-exponential backoff), A-MPDU
// aggregation out of a hardware transmit queue, compressed block ACKs with
// a 64-frame window, retransmission with per-MPDU retry limits, beaconing
// and bare management exchanges (for the Enhanced 802.11r baseline).
//
// Two WGTT-specific hooks, both motivated by the paper:
//  - a shared downlink sequence space: the controller's 12-bit per-client
//    index is used as the 802.11 sequence number, so a client's block-ACK
//    window survives AP switches (enqueue() takes an explicit seq);
//  - inject_block_ack(): block-ACK state learned over the backhaul (from an
//    AP that overheard the client's BA) is merged into the transmit
//    scoreboard, suppressing spurious retransmissions (§3.2.1).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "channel/link_channel.h"
#include "mac/block_ack.h"
#include "mac/frame.h"
#include "mac/medium.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "phy/airtime.h"
#include "phy/rate_control.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace wgtt::mac {

class WifiMac {
 public:
  struct Config {
    phy::PhyTimings timings{};
    int max_ampdu_mpdus = 32;
    std::size_t max_ampdu_bytes = 48'000;
    /// TXOP-style cap on one A-MPDU's airtime. Without it a low-MCS
    /// aggregate of 32 full MPDUs would occupy the medium for ~50 ms and
    /// starve feedback; real 802.11n bounds transmissions to a few ms.
    Time max_tx_airtime = Time::millis(4.0);
    int retry_limit = 7;
    std::size_t hw_queue_capacity = 128;  // NIC hardware queue (paper Fig. 7)
    Time ba_timeout_margin = Time::us(150);
    /// HT-immediate BA responders jitter their reply by a few microseconds
    /// (paper §5.3.2 observed this on the TP-Link hardware); it is what
    /// keeps the multi-AP uplink BA collision rate near zero (Table 3).
    Time ba_response_jitter_max = Time::us(45);
    /// Client in a WGTT network: one downlink sequence space across all
    /// APs sharing the BSSID.
    bool shared_rx_scoreboard = false;
    /// This radio accepts data frames addressed to the shared WGTT BSSID.
    bool accept_bssid = false;
  };

  struct PeerStats {
    std::uint64_t mpdus_enqueued = 0;
    std::uint64_t enqueue_drops = 0;        // hw queue full
    std::uint64_t mpdus_delivered = 0;      // acked by (any) BA
    std::uint64_t mpdus_delivered_via_forwarded_ba = 0;
    std::uint64_t mpdus_dropped_retry = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t ampdus_sent = 0;
    std::uint64_t ba_timeouts = 0;
    std::uint64_t bytes_delivered = 0;      // MPDU payload bytes acked
    std::uint64_t rx_mpdus_decoded = 0;
    std::uint64_t rx_mpdus_duplicate = 0;
    std::uint64_t ba_sent = 0;
  };

  /// Sampler for the channel between this radio and `peer`, at now. Wired
  /// by the owner, which knows the geometry. Used both for decode draws on
  /// reception and (transmit side) for ESNR-driven rate control.
  using SampleFn = std::function<channel::CsiMeasurement(RadioId peer)>;
  /// Upper bound, in dB, on every subcarrier SNR the sampler can return for
  /// `peer` at now. A decode draw this bound already settles needs no CSI
  /// (DESIGN.md §14), so an over-tight bound changes results; a loose one
  /// only costs syntheses.
  using CeilingFn = std::function<double(RadioId peer)>;

  WifiMac(sim::Scheduler& sched, Medium& medium, Rng rng, Config config);

  /// Registers this MAC's radio on the medium. Must be called exactly once
  /// before any traffic.
  RadioId attach(Medium::PositionFn position);
  [[nodiscard]] RadioId radio() const { return radio_; }

  /// Wires the sampler and, beside it, its SNR ceiling. Without a ceiling
  /// the bound is +inf, and every decode draw synthesises CSI first.
  void set_channel_sampler(SampleFn sampler, CeilingFn ceiling = {}) {
    sampler_ = std::move(sampler);
    ceiling_ = std::move(ceiling);
  }

  /// Optional receive filter: frames from radios for which this returns
  /// false and that are not addressed to us are discarded before the
  /// (expensive) channel sampling — e.g. an AP ignores other APs' downlink.
  void set_interest_filter(std::function<bool(RadioId from)> f) {
    interest_ = std::move(f);
  }

  // --- peers -------------------------------------------------------------
  void add_peer(RadioId peer);
  [[nodiscard]] bool has_peer(RadioId peer) const { return peers_.contains(peer); }
  void remove_peer(RadioId peer);
  void set_rate_controller(RadioId peer, std::unique_ptr<phy::RateController> rc);

  // --- data path ----------------------------------------------------------
  /// Queues one packet for `peer`. If `seq` is given it becomes the 802.11
  /// sequence number (WGTT: the controller's cyclic-queue index); otherwise
  /// the per-peer counter assigns one. Returns false if the hardware queue
  /// is full.
  bool enqueue(RadioId peer, net::Packet packet,
               std::optional<std::uint16_t> seq = std::nullopt);

  /// MPDUs queued (unsent + awaiting ack) toward `peer`.
  [[nodiscard]] std::size_t queue_depth(RadioId peer) const;
  /// Drops all queued MPDUs toward `peer` (ablation hook).
  void flush_peer(RadioId peer);
  /// Address downlink/uplink data to the shared WGTT BSSID instead of the
  /// peer radio (client side of a thin-AP network).
  void set_tx_to_bssid(bool v) { tx_to_bssid_ = v; }

  // --- WGTT block-ACK forwarding hook --------------------------------------
  /// Merges a block ACK learned out-of-band (forwarded over the backhaul)
  /// into the scoreboard for `client`. MPDUs it acks that are still queued
  /// are completed without retransmission.
  void inject_block_ack(RadioId client, const BaBitmap& ba);

  // --- management / beacons (baseline) -------------------------------------
  void enable_beacons(Time interval);
  void send_mgmt(RadioId peer, MgmtFrame frame);

  // --- stats ---------------------------------------------------------------
  [[nodiscard]] const PeerStats& stats(RadioId peer) const;
  [[nodiscard]] PeerStats total_stats() const;
  /// Block-ACK frames addressed to this radio that arrived at all /
  /// arrived garbled by a collision (the paper's Table 3 numerator).
  [[nodiscard]] std::uint64_t ba_frames_heard() const { return ba_heard_; }
  [[nodiscard]] std::uint64_t ba_frames_collided() const { return ba_collided_; }
  /// This radio's random stream (decode draws, backoff, BA jitter); tests
  /// compare streams through it.
  [[nodiscard]] const Rng& rng() const { return rng_; }

  /// Registers and starts recording `<component>.*` metrics (A-MPDU sizes,
  /// retransmissions, BA merges/collisions, hardware-queue depth). The
  /// component prefix separates roles sharing this class — AP radios report
  /// as "mac", client radios as "client_mac" — while radios of the same
  /// role aggregate into one series. nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry, std::string_view component);

  // --- upward callbacks ----------------------------------------------------
  /// A decoded, non-duplicate data MPDU addressed to this radio (or its
  /// BSSID).
  std::function<void(RadioId from, const net::Packet&)> on_deliver;
  /// Once per decoded audible frame, addressed or not, after its decode
  /// draws: a data frame counts as decoded when any MPDU is. `csi` is the
  /// measurement the draws used (valid only during the call). Never called
  /// for a collided or undecoded frame, whose CSI is not synthesised, so
  /// `decoded` is always true; the parameter stays for existing hooks.
  /// Monitor-mode hook: CSI extraction and BA overhearing plug in here.
  std::function<void(const Frame&, bool decoded,
                     const channel::CsiMeasurement& csi)>
      on_heard;
  /// Decoded management frame addressed to this radio.
  std::function<void(RadioId from, MgmtFrame)> on_mgmt;
  /// Transmit-side completion: seq acked by the client (BA or forwarded BA).
  std::function<void(RadioId peer, std::uint16_t seq, const net::Packet&)>
      on_mpdu_acked;
  /// Fired per A-MPDU attempt with the bitrate used — feeds Figure 16.
  std::function<void(RadioId peer, phy::Mcs mcs, int mpdus)> on_tx_attempt;

 private:
  struct TxMpdu {
    Mpdu mpdu;
    bool ever_sent = false;
  };
  struct Peer {
    std::deque<TxMpdu> queue;  // seq order; front = window start
    std::unique_ptr<phy::RateController> rc;
    SeqCounter seq_counter;
    PeerStats stats;
  };
  struct Outstanding {
    std::uint64_t tx_uid = 0;
    RadioId peer{};
    std::vector<std::uint16_t> seqs;
    phy::Mcs mcs{};
  };
  struct MgmtItem {
    RadioId peer{};
    FrameBody body;
  };
  /// One received frame's decode state: its CSI and ESNR are synthesised
  /// at most once, and only when the ceiling cannot settle a draw.
  struct RxDecode {
    RadioId from{};
    phy::Mcs mcs{};
    double esnr_ceiling_db = 0.0;
    std::optional<channel::CsiMeasurement> csi;
    double esnr_db = 0.0;
    /// Delivery-probability bounds for MPDUs of `bounds_bytes` (an
    /// aggregate's MPDUs mostly share one size).
    std::size_t bounds_bytes = 0;
    double p_floor = 0.0;
    double p_ceiling = 0.0;
  };

  Peer& peer_of(RadioId id);
  const Peer* find_peer(RadioId id) const;

  void kick();
  void start_contention();
  void attempt_transmit();
  void transmit_data(RadioId peer_id);
  void transmit_mgmt(const MgmtItem& item);
  void on_ba_timeout();
  void process_ba(RadioId from, const BaBitmap& ba, bool forwarded);
  void handle_rx(const Frame& frame, const Medium::RxContext& ctx);
  [[nodiscard]] RxDecode start_decode(RadioId from, phy::Mcs mcs) const;
  /// Decode draw for one `bytes`-long MPDU of the frame: the stream and
  /// outcome of rng_.chance(p) on its exact delivery probability p.
  bool decode_draw(RxDecode& rx, std::size_t bytes);
  void send_block_ack(RadioId to, const BaBitmap& ba, std::uint64_t acked_uid);
  [[nodiscard]] RadioId pick_next_data_peer();
  [[nodiscard]] bool peer_has_eligible(const Peer& p) const;
  void complete_mpdu(Peer& p, RadioId peer_id, std::deque<TxMpdu>::iterator it,
                     bool via_forwarded);

  sim::Scheduler& sched_;
  Medium& medium_;
  Rng rng_;
  Config config_;
  RadioId radio_{0xffffffff};
  SampleFn sampler_;
  CeilingFn ceiling_;
  std::function<bool(RadioId)> interest_;

  std::unordered_map<RadioId, Peer> peers_;
  std::vector<RadioId> peer_order_;   // round-robin
  std::size_t rr_cursor_ = 0;

  std::deque<MgmtItem> mgmt_queue_;
  bool tx_to_bssid_ = false;

  enum class TxState { kIdle, kContending, kAwaitingBa, kTransmitting };
  TxState state_ = TxState::kIdle;
  int cw_ = 15;
  Outstanding outstanding_;
  std::unique_ptr<sim::Timer> ba_timer_;
  sim::EventId contention_event_{};

  // Receive-side duplicate filtering: shared (WGTT client) or per-sender.
  RxDupFilter shared_filter_;
  std::unordered_map<RadioId, RxDupFilter> per_sender_filter_;

  Time beacon_interval_ = Time::ms(100);
  std::unique_ptr<sim::Timer> beacon_timer_;
  std::uint64_t ba_heard_ = 0;
  std::uint64_t ba_collided_ = 0;

  struct Metrics {
    obs::Counter* ampdus_sent;
    obs::Counter* retransmissions;
    obs::Counter* mpdus_delivered;
    obs::Counter* mpdus_delivered_via_forwarded_ba;
    obs::Counter* mpdus_dropped_retry;
    obs::Counter* enqueue_drops;
    obs::Counter* ba_timeouts;
    obs::Counter* ba_injected;  // backhaul-forwarded BA merges (§3.2.1)
    obs::Counter* ba_heard;
    obs::Counter* ba_collisions;
    obs::Histogram* ampdu_mpdus;     // MPDUs per A-MPDU attempt
    obs::Histogram* hw_queue_depth;  // depth after each enqueue
  };
  std::optional<Metrics> metrics_;
};

}  // namespace wgtt::mac
