#include "mac/wifi_mac.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "phy/esnr.h"

namespace wgtt::mac {

namespace {
/// Block ACKs are sent at the 24 Mbit/s legacy control rate (16-QAM 1/2):
/// fast, but fragile near cell edges — which is why the paper forwards
/// overheard BAs between APs (§3.2.1).
constexpr phy::Mcs kBlockAckMcs = phy::Mcs::kMcs3;
constexpr std::size_t kBlockAckBytes = 32;
/// Beacons and management frames go at the 1 Mbit/s basic rate: slow and
/// very robust (decodable well past the data-usable range).
constexpr phy::Mcs kMgmtMcs = phy::Mcs::kMcs0;
constexpr std::size_t kBeaconBytes = 300;
constexpr std::size_t kMgmtBytes = 96;
}  // namespace

WifiMac::WifiMac(sim::Scheduler& sched, Medium& medium, Rng rng, Config config)
    : sched_(sched), medium_(medium), rng_(rng), config_(config) {
  cw_ = config_.timings.cw_min;
  ba_timer_ = std::make_unique<sim::Timer>(sched_, [this] { on_ba_timeout(); },
                                           sim::EventCategory::kMacTx);
}

void WifiMac::set_metrics(obs::MetricsRegistry* registry,
                          std::string_view component) {
  if (registry == nullptr) {
    metrics_.reset();
    return;
  }
  const std::string prefix = std::string(component) + ".";
  auto counter = [&](std::string_view name) {
    return &registry->counter(prefix + std::string(name));
  };
  Metrics m;
  m.ampdus_sent = counter("ampdus_sent");
  m.retransmissions = counter("retransmissions");
  m.mpdus_delivered = counter("mpdus_delivered");
  m.mpdus_delivered_via_forwarded_ba =
      counter("mpdus_delivered_via_forwarded_ba");
  m.mpdus_dropped_retry = counter("mpdus_dropped_retry");
  m.enqueue_drops = counter("enqueue_drops");
  m.ba_timeouts = counter("ba_timeouts");
  m.ba_injected = counter("ba_injected");
  m.ba_heard = counter("ba_heard");
  m.ba_collisions = counter("ba_collisions");
  m.ampdu_mpdus =
      &registry->histogram(prefix + "ampdu_mpdus", 0.0, 33.0, 33);
  m.hw_queue_depth =
      &registry->histogram(prefix + "hw_queue_depth", 0.0, 160.0, 160);
  metrics_ = m;
}

RadioId WifiMac::attach(Medium::PositionFn position) {
  if (radio_ != RadioId{0xffffffff}) throw std::logic_error("WifiMac::attach called twice");
  radio_ = medium_.add_radio(
      std::move(position),
      [this](const Frame& f, const Medium::RxContext& ctx) { handle_rx(f, ctx); });
  return radio_;
}

void WifiMac::add_peer(RadioId peer) {
  if (peers_.contains(peer)) return;
  peers_.emplace(peer, Peer{});
  peer_order_.push_back(peer);
}

void WifiMac::remove_peer(RadioId peer) {
  peers_.erase(peer);
  std::erase(peer_order_, peer);
  if (rr_cursor_ >= peer_order_.size()) rr_cursor_ = 0;
}

void WifiMac::set_rate_controller(RadioId peer,
                                  std::unique_ptr<phy::RateController> rc) {
  peer_of(peer).rc = std::move(rc);
}

WifiMac::Peer& WifiMac::peer_of(RadioId id) {
  auto it = peers_.find(id);
  if (it == peers_.end()) throw std::logic_error("unknown peer");
  return it->second;
}

const WifiMac::Peer* WifiMac::find_peer(RadioId id) const {
  auto it = peers_.find(id);
  return it == peers_.end() ? nullptr : &it->second;
}

bool WifiMac::enqueue(RadioId peer, net::Packet packet,
                      std::optional<std::uint16_t> seq) {
  Peer& p = peer_of(peer);
  if (p.queue.size() >= config_.hw_queue_capacity) {
    ++p.stats.enqueue_drops;
    if (metrics_) metrics_->enqueue_drops->inc();
    return false;
  }
  TxMpdu t;
  t.mpdu.seq = seq.value_or(p.seq_counter.peek());
  if (!seq) p.seq_counter.next();
  t.mpdu.packet = std::move(packet);
  p.queue.push_back(std::move(t));
  ++p.stats.mpdus_enqueued;
  if (metrics_) {
    metrics_->hw_queue_depth->observe(static_cast<double>(p.queue.size()));
  }
  kick();
  return true;
}

std::size_t WifiMac::queue_depth(RadioId peer) const {
  const Peer* p = find_peer(peer);
  return p ? p->queue.size() : 0;
}

void WifiMac::flush_peer(RadioId peer) {
  Peer* p = peers_.contains(peer) ? &peer_of(peer) : nullptr;
  if (p == nullptr) return;
  // Keep MPDUs that are part of an in-flight transmission; they resolve at
  // BA/timeout. (In practice flush is called while idle.)
  if (state_ == TxState::kAwaitingBa && outstanding_.peer == peer) return;
  p->queue.clear();
}

bool WifiMac::peer_has_eligible(const Peer& p) const {
  if (p.queue.empty()) return false;
  const std::uint16_t window_start = p.queue.front().mpdu.seq;
  for (const auto& t : p.queue) {
    if (seq_sub(t.mpdu.seq, window_start) >= kBaWindow) break;
    return true;  // front of the window always transmittable
  }
  return false;
}

RadioId WifiMac::pick_next_data_peer() {
  const std::size_t n = peer_order_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (rr_cursor_ + i) % n;
    const RadioId id = peer_order_[idx];
    if (peer_has_eligible(peer_of(id))) {
      rr_cursor_ = (idx + 1) % n;
      return id;
    }
  }
  return RadioId{0xffffffff};
}

void WifiMac::kick() {
  if (state_ != TxState::kIdle) return;
  const bool have_mgmt = !mgmt_queue_.empty();
  const bool have_data =
      !peer_order_.empty() && pick_next_data_peer() != RadioId{0xffffffff};
  if (!have_mgmt && !have_data) return;
  start_contention();
}

void WifiMac::start_contention() {
  state_ = TxState::kContending;
  const int slots = static_cast<int>(rng_.uniform_int(static_cast<std::uint64_t>(cw_) + 1));
  const Time idle_at = medium_.busy_until(radio_);
  const Time target =
      idle_at + config_.timings.difs + config_.timings.slot * slots;
  contention_event_ = sched_.schedule_at(target, [this] { attempt_transmit(); },
                                         sim::EventCategory::kMacTx);
}

void WifiMac::attempt_transmit() {
  if (state_ != TxState::kContending) return;
  if (medium_.busy_until(radio_) > sched_.now()) {
    // Medium became busy during our backoff: re-contend after it clears.
    start_contention();
    return;
  }
  if (!mgmt_queue_.empty()) {
    MgmtItem item = std::move(mgmt_queue_.front());
    mgmt_queue_.pop_front();
    transmit_mgmt(item);
    return;
  }
  const RadioId peer = pick_next_data_peer();
  if (peer == RadioId{0xffffffff}) {
    state_ = TxState::kIdle;
    return;
  }
  transmit_data(peer);
}

void WifiMac::transmit_data(RadioId peer_id) {
  Peer& p = peer_of(peer_id);

  // Rate selection (fresh CSI if the controller is ESNR-driven).
  phy::Mcs mcs = phy::Mcs::kMcs0;
  if (p.rc) {
    if (sampler_ && p.rc->uses_csi()) {
      const channel::CsiMeasurement csi = sampler_(peer_id);
      p.rc->observe_csi(csi.subcarrier_snr_db);
    }
    mcs = p.rc->select();
  }

  // Aggregate from the front of the BA window.
  DataFrame df;
  df.mcs = mcs;
  std::size_t bytes = 0;
  const std::uint16_t window_start = p.queue.front().mpdu.seq;
  for (auto& t : p.queue) {
    if (static_cast<int>(df.mpdus.size()) >= config_.max_ampdu_mpdus) break;
    if (seq_sub(t.mpdu.seq, window_start) >= kBaWindow) break;
    const std::size_t sz = t.mpdu.packet.air_bytes();
    if (!df.mpdus.empty() && bytes + sz > config_.max_ampdu_bytes) break;
    if (!df.mpdus.empty() &&
        phy::ampdu_duration(mcs, bytes + sz) > config_.max_tx_airtime) {
      break;
    }
    bytes += sz;
    if (t.ever_sent) {
      ++t.mpdu.retries;
      ++p.stats.retransmissions;
      if (metrics_) metrics_->retransmissions->inc();
    }
    t.ever_sent = true;
    df.mpdus.push_back(t.mpdu);
  }
  if (df.mpdus.empty()) {
    state_ = TxState::kIdle;
    return;
  }

  const Time duration = phy::ampdu_duration(mcs, bytes);
  Frame frame;
  frame.to = tx_to_bssid_ ? kBssidWgtt : peer_id;
  frame.body = df;

  outstanding_ = Outstanding{};
  outstanding_.peer = peer_id;
  outstanding_.mcs = mcs;
  for (const auto& m : df.mpdus) outstanding_.seqs.push_back(m.seq);

  ++p.stats.ampdus_sent;
  if (metrics_) {
    metrics_->ampdus_sent->inc();
    metrics_->ampdu_mpdus->observe(static_cast<double>(df.mpdus.size()));
  }
  if (on_tx_attempt) on_tx_attempt(peer_id, mcs, static_cast<int>(df.mpdus.size()));

  outstanding_.tx_uid = medium_.transmit(radio_, std::move(frame), duration);
  state_ = TxState::kAwaitingBa;
  ba_timer_->start(duration + config_.timings.sifs + phy::block_ack_duration() +
                   config_.ba_response_jitter_max + config_.ba_timeout_margin);
}

void WifiMac::transmit_mgmt(const MgmtItem& item) {
  Frame frame;
  frame.to = item.peer;
  frame.body = item.body;
  const bool is_beacon = std::holds_alternative<BeaconFrame>(item.body);
  const Time duration =
      is_beacon ? phy::beacon_duration() : phy::mpdu_duration(phy::Mcs::kMcs0, 96);
  medium_.transmit(radio_, std::move(frame), duration);
  state_ = TxState::kTransmitting;
  sched_.schedule_in(duration, [this] {
    state_ = TxState::kIdle;
    kick();
  }, sim::EventCategory::kMacTx);
}

void WifiMac::complete_mpdu(Peer& p, RadioId peer_id,
                            std::deque<TxMpdu>::iterator it,
                            bool via_forwarded) {
  ++p.stats.mpdus_delivered;
  if (via_forwarded) ++p.stats.mpdus_delivered_via_forwarded_ba;
  if (metrics_) {
    metrics_->mpdus_delivered->inc();
    if (via_forwarded) metrics_->mpdus_delivered_via_forwarded_ba->inc();
  }
  p.stats.bytes_delivered += it->mpdu.packet.payload_bytes;
  // Erase before the callback: on_mpdu_acked handlers re-enter (the AP pump
  // enqueues the next packet), which would invalidate `it`.
  Mpdu acked = std::move(it->mpdu);
  p.queue.erase(it);
  if (on_mpdu_acked) on_mpdu_acked(peer_id, acked.seq, acked.packet);
}

void WifiMac::process_ba(RadioId peer_id, const BaBitmap& ba, bool forwarded) {
  Peer* pp = peers_.contains(peer_id) ? &peer_of(peer_id) : nullptr;
  if (pp == nullptr) return;
  Peer& p = *pp;

  // Complete every queued MPDU the bitmap acks. Index-based loop: deque
  // erase invalidates iterators.
  for (std::size_t i = 0; i < p.queue.size();) {
    if (p.queue[i].ever_sent && ba.acks(p.queue[i].mpdu.seq)) {
      complete_mpdu(p, peer_id, p.queue.begin() + static_cast<std::ptrdiff_t>(i),
                    forwarded);
    } else {
      ++i;
    }
  }

  if (!forwarded && state_ == TxState::kAwaitingBa && outstanding_.peer == peer_id) {
    // Live BA for the outstanding aggregate: resolve it. An MPDU counts as
    // delivered if this bitmap acks it OR an earlier-merged BA (another AP
    // hearing the same BSSID-addressed aggregate, or a forwarded BA)
    // already completed it — otherwise the rate controller under-counts
    // multi-AP receptions and spirals down the MCS table.
    ba_timer_->cancel();
    int delivered = 0;
    for (std::uint16_t s : outstanding_.seqs) {
      if (ba.acks(s)) {
        ++delivered;
        continue;
      }
      const bool still_queued =
          std::any_of(p.queue.begin(), p.queue.end(),
                      [s](const TxMpdu& t) { return t.mpdu.seq == s; });
      if (!still_queued) ++delivered;
    }
    if (p.rc) {
      p.rc->report(outstanding_.mcs, static_cast<int>(outstanding_.seqs.size()),
                   delivered);
    }
    // Unacked MPDUs stay queued; drop those past the retry limit.
    for (auto it = p.queue.begin(); it != p.queue.end();) {
      if (it->ever_sent && !ba.acks(it->mpdu.seq) &&
          it->mpdu.retries >= config_.retry_limit) {
        ++p.stats.mpdus_dropped_retry;
        if (metrics_) metrics_->mpdus_dropped_retry->inc();
        it = p.queue.erase(it);
      } else {
        ++it;
      }
    }
    cw_ = config_.timings.cw_min;
    state_ = TxState::kIdle;
    kick();
  }
}

void WifiMac::on_ba_timeout() {
  if (state_ != TxState::kAwaitingBa) return;
  Peer* pp = peers_.contains(outstanding_.peer) ? &peer_of(outstanding_.peer) : nullptr;
  if (pp != nullptr) {
    Peer& p = *pp;
    ++p.stats.ba_timeouts;
    if (metrics_) metrics_->ba_timeouts->inc();
    if (p.rc) {
      // MPDUs completed out-of-band (merged BAs) still count as delivered.
      int delivered = 0;
      for (std::uint16_t s : outstanding_.seqs) {
        const bool still_queued =
            std::any_of(p.queue.begin(), p.queue.end(),
                        [s](const TxMpdu& t) { return t.mpdu.seq == s; });
        if (!still_queued) ++delivered;
      }
      p.rc->report(outstanding_.mcs, static_cast<int>(outstanding_.seqs.size()),
                   delivered);
    }
    for (auto it = p.queue.begin(); it != p.queue.end();) {
      if (it->ever_sent && it->mpdu.retries >= config_.retry_limit) {
        ++p.stats.mpdus_dropped_retry;
        if (metrics_) metrics_->mpdus_dropped_retry->inc();
        it = p.queue.erase(it);
      } else {
        ++it;
      }
    }
  }
  cw_ = std::min(cw_ * 2 + 1, config_.timings.cw_max);
  state_ = TxState::kIdle;
  kick();
}

void WifiMac::inject_block_ack(RadioId client, const BaBitmap& ba) {
  // Out-of-band scoreboard update (ath_tx_complete_aggr path in the paper).
  if (metrics_) metrics_->ba_injected->inc();
  process_ba(client, ba, /*forwarded=*/true);
  // If we are currently awaiting this client's BA over the air, the live
  // path still runs; the forwarded copy only completes queued MPDUs early.
}

void WifiMac::send_block_ack(RadioId to, const BaBitmap& ba,
                             std::uint64_t acked_uid) {
  // BA is sent SIFS (plus hardware jitter) after the data frame, without
  // contention (HT-immediate block ack).
  const Time jitter = Time::ns(static_cast<std::int64_t>(
      rng_.uniform() *
      static_cast<double>(config_.ba_response_jitter_max.count_ns())));
  sched_.schedule_in(config_.timings.sifs + jitter, [this, to, ba, acked_uid] {
    Frame f;
    f.to = to;
    BlockAckFrame baf;
    baf.start_seq = ba.start_seq;
    baf.bitmap = ba.bits;
    baf.acked_tx_uid = acked_uid;
    f.body = baf;
    medium_.transmit(radio_, std::move(f), phy::block_ack_duration());
  }, sim::EventCategory::kMacTx);
}

WifiMac::RxDecode WifiMac::start_decode(RadioId from, phy::Mcs mcs) const {
  const double snr_ceiling_db =
      ceiling_ ? ceiling_(from) : std::numeric_limits<double>::infinity();
  RxDecode rx;
  rx.from = from;
  rx.mcs = mcs;
  rx.esnr_ceiling_db =
      phy::esnr_ceiling_db(snr_ceiling_db, phy::mcs_info(mcs).modulation);
  return rx;
}

bool WifiMac::decode_draw(RxDecode& rx, std::size_t bytes) {
  const auto p = [&] {
    if (!rx.csi) {
      rx.csi = sampler_(rx.from);
      rx.esnr_db = phy::effective_snr_db(rx.csi->subcarrier_snr_db,
                                         phy::mcs_info(rx.mcs).modulation);
    }
    return phy::mpdu_delivery_probability(rx.esnr_db, rx.mcs, bytes);
  };
  if (rx.csi) return rng_.chance(p());
  // ESNR lies in [-30 dB, esnr_ceiling_db] and delivery probability rises
  // with it, so p(-30 dB) <= p <= p(ceiling): the draw may be settled
  // before any CSI exists (DESIGN.md §14).
  if (bytes != rx.bounds_bytes) {
    rx.bounds_bytes = bytes;
    rx.p_floor =
        phy::mpdu_delivery_probability(phy::kEsnrFloorDb, rx.mcs, bytes);
    rx.p_ceiling =
        phy::mpdu_delivery_probability(rx.esnr_ceiling_db, rx.mcs, bytes);
  }
  return rng_.chance_bounded(rx.p_floor, rx.p_ceiling, p);
}

void WifiMac::handle_rx(const Frame& frame, const Medium::RxContext& ctx) {
  if (!sampler_) return;
  const bool addressed =
      frame.to == radio_ || (config_.accept_bssid && frame.to == kBssidWgtt) ||
      frame.to == kBroadcast;
  if (!addressed) {
    // Skip uninteresting overheard traffic before any decode work.
    if (!on_heard) return;
    if (interest_ && !interest_(frame.from)) return;
  }

  if (addressed && std::holds_alternative<BlockAckFrame>(frame.body)) {
    ++ba_heard_;
    if (ctx.collided) ++ba_collided_;
    if (metrics_) {
      metrics_->ba_heard->inc();
      if (ctx.collided) metrics_->ba_collisions->inc();
    }
  }
  // A collided frame draws nothing and reaches no handler.
  if (ctx.collided) return;

  if (const auto* df = std::get_if<DataFrame>(&frame.body)) {
    // Per-MPDU decode draws from this receiver's own channel realization.
    RxDecode rx = start_decode(frame.from, df->mcs);
    std::vector<std::uint16_t> decoded;
    decoded.reserve(df->mpdus.size());
    for (const auto& m : df->mpdus) {
      if (decode_draw(rx, m.packet.air_bytes())) decoded.push_back(m.seq);
    }
    if (decoded.empty()) return;

    if (on_heard) on_heard(frame, true, *rx.csi);

    if (!addressed) return;

    if (df->needs_block_ack) {
      const BaBitmap ba =
          BaBitmap::from_decoded(df->mpdus.front().seq, decoded);
      Peer* p = peers_.contains(frame.from) ? &peer_of(frame.from) : nullptr;
      if (p != nullptr) ++p->stats.ba_sent;
      send_block_ack(frame.from, ba, frame.tx_uid);
    }

    // Deliver new MPDUs upward through the duplicate filter.
    for (const auto& m : df->mpdus) {
      if (std::find(decoded.begin(), decoded.end(), m.seq) == decoded.end()) {
        continue;
      }
      RxDupFilter& filter = config_.shared_rx_scoreboard
                                ? shared_filter_
                                : per_sender_filter_[frame.from];
      // Attribute rx stats to the logical peer: in thin-AP mode data from
      // any AP belongs to the single BSSID peer.
      const RadioId stats_peer =
          config_.shared_rx_scoreboard && peers_.contains(kBssidWgtt)
              ? kBssidWgtt
              : frame.from;
      Peer* p = peers_.contains(stats_peer) ? &peer_of(stats_peer) : nullptr;
      if (filter.accept(m.seq)) {
        if (p != nullptr) ++p->stats.rx_mpdus_decoded;
        if (on_deliver) on_deliver(frame.from, m.packet);
      } else if (p != nullptr) {
        ++p->stats.rx_mpdus_duplicate;
      }
    }
    return;
  }

  if (const auto* baf = std::get_if<BlockAckFrame>(&frame.body)) {
    RxDecode rx = start_decode(frame.from, kBlockAckMcs);
    if (!decode_draw(rx, kBlockAckBytes)) return;
    if (on_heard) on_heard(frame, true, *rx.csi);
    if (!addressed) return;
    BaBitmap ba;
    ba.start_seq = baf->start_seq;
    ba.bits = baf->bitmap;
    if (state_ == TxState::kAwaitingBa &&
        (baf->acked_tx_uid == outstanding_.tx_uid)) {
      process_ba(outstanding_.peer, ba, /*forwarded=*/false);
    } else {
      // Late or duplicate BA (e.g. a second AP acking the same uplink
      // aggregate): still merge any acks it carries. In thin-AP (BSSID)
      // mode every AP's BA refers to the single network peer.
      process_ba(tx_to_bssid_ ? kBssidWgtt : frame.from, ba, /*forwarded=*/true);
    }
    return;
  }

  if (std::holds_alternative<BeaconFrame>(frame.body)) {
    RxDecode rx = start_decode(frame.from, kMgmtMcs);
    if (decode_draw(rx, kBeaconBytes) && on_heard) on_heard(frame, true, *rx.csi);
    return;
  }

  if (const auto* mf = std::get_if<MgmtFrame>(&frame.body)) {
    RxDecode rx = start_decode(frame.from, kMgmtMcs);
    if (!decode_draw(rx, kMgmtBytes)) return;
    if (on_heard) on_heard(frame, true, *rx.csi);
    if (addressed && on_mgmt) on_mgmt(frame.from, *mf);
    return;
  }
}

void WifiMac::enable_beacons(Time interval) {
  beacon_interval_ = interval;
  if (!beacon_timer_) {
    beacon_timer_ = std::make_unique<sim::Timer>(
        sched_,
        [this] {
          mgmt_queue_.push_back(MgmtItem{kBroadcast, BeaconFrame{}});
          kick();
          beacon_timer_->start(beacon_interval_);
        },
        sim::EventCategory::kMacTx);
  }
  beacon_timer_->start(beacon_interval_);
}

void WifiMac::send_mgmt(RadioId peer, MgmtFrame frame) {
  mgmt_queue_.push_back(MgmtItem{peer, frame});
  kick();
}

const WifiMac::PeerStats& WifiMac::stats(RadioId peer) const {
  static const PeerStats kEmpty{};
  const Peer* p = find_peer(peer);
  return p ? p->stats : kEmpty;
}

WifiMac::PeerStats WifiMac::total_stats() const {
  PeerStats total;
  for (const auto& [id, p] : peers_) {
    total.mpdus_enqueued += p.stats.mpdus_enqueued;
    total.enqueue_drops += p.stats.enqueue_drops;
    total.mpdus_delivered += p.stats.mpdus_delivered;
    total.mpdus_delivered_via_forwarded_ba +=
        p.stats.mpdus_delivered_via_forwarded_ba;
    total.mpdus_dropped_retry += p.stats.mpdus_dropped_retry;
    total.retransmissions += p.stats.retransmissions;
    total.ampdus_sent += p.stats.ampdus_sent;
    total.ba_timeouts += p.stats.ba_timeouts;
    total.bytes_delivered += p.stats.bytes_delivered;
    total.rx_mpdus_decoded += p.stats.rx_mpdus_decoded;
    total.rx_mpdus_duplicate += p.stats.rx_mpdus_duplicate;
    total.ba_sent += p.stats.ba_sent;
  }
  return total;
}

}  // namespace wgtt::mac
