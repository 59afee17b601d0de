#include "core/controller.h"

#include <algorithm>

#include "phy/esnr.h"

namespace wgtt::core {

using net::BackhaulMessage;
using net::NodeId;

namespace {

// 48-bit de-dup key: 32-bit source identity (client) + 16-bit IP-ID
// (§3.2.2).
std::uint64_t dedup_key(net::ClientId client, std::uint32_t ip_id) {
  return (static_cast<std::uint64_t>(net::index_of(client)) << 16) |
         (ip_id & 0xffff);
}

}  // namespace

Controller::Controller(sim::Scheduler& sched, net::Backhaul& backhaul,
                       net::PacketPool& payload_pool, Config config)
    : sched_(sched),
      backhaul_(backhaul),
      payload_pool_(payload_pool),
      config_(config),
      tracker_(config.selection_window) {
  backhaul_.attach(self_node(),
                   [this](NodeId from, BackhaulMessage msg) {
                     handle_backhaul(from, std::move(msg));
                   });
  // Timer start order (AP probes, peer probes, gossip) is part of every
  // seeded run.
  if (config_.liveness_enabled) {
    heartbeat_timer_ = std::make_unique<sim::Timer>(sched_, [this] {
      for (net::ApId ap : aps_) probe(NodeId::ap(ap));
      heartbeat_timer_->start(config_.heartbeat_interval);
    }, sim::EventCategory::kControl);
    heartbeat_timer_->start(config_.heartbeat_interval);
  }
  if (multi_domain()) {
    peers_.resize(config_.domains.num_domains);
    adopted_by_me_.assign(config_.domains.num_domains, false);
    peer_heartbeat_timer_ = std::make_unique<sim::Timer>(sched_, [this] {
      for (std::uint32_t d = 0; d < peers_.size(); ++d) {
        if (d != config_.domains.id) probe(NodeId::controller(d));
      }
      peer_heartbeat_timer_->start(config_.heartbeat_interval);
    }, sim::EventCategory::kControl);
    peer_heartbeat_timer_->start(config_.heartbeat_interval);
    domain_sync_timer_ = std::make_unique<sim::Timer>(
        sched_, [this] { domain_sync_tick(); }, sim::EventCategory::kControl);
    domain_sync_timer_->start(config_.domains.sync_interval);
  }
}

void Controller::set_metrics(obs::MetricsRegistry* registry) {
  counters_.reset();
  if (registry == nullptr) {
    metrics_.reset();
    return;
  }
  const auto bind = [&](std::string_view name, const std::uint64_t& field) {
    counters_.bind(registry->counter(name), field);
  };
  bind("controller.csi_reports", stats_.csi_reports);
  bind("controller.selection_evaluations", stats_.selection_evaluations);
  bind("controller.switches_initiated", stats_.switches_initiated);
  bind("controller.switches_completed", stats_.switches_completed);
  bind("controller.stop_retransmissions", stats_.stop_retransmissions);
  bind("controller.stale_acks_ignored", stats_.stale_acks_ignored);
  bind("controller.downlink_packets", stats_.downlink_packets);
  bind("controller.fanout_copies", stats_.downlink_fanout_copies);
  bind("controller.fanout_empty_drops", stats_.fanout_empty_drops);
  bind("controller.uplink_packets", stats_.uplink_packets);
  bind("controller.dedup_hits", stats_.uplink_duplicates_dropped);
  bind("controller.dedup_misses", stats_.uplink_accepted);
  Metrics m;
  m.dedup_table_size = &registry->gauge("controller.dedup_table_size");
  // 0.25 ms buckets keep the Table-1 percentile estimate well inside the
  // 1 ms agreement bound with the exact trace-derived values.
  m.switch_time_ms =
      &registry->histogram("controller.switch_time_ms", 0.0, 60.0, 240);
  // Liveness instruments exist only when liveness does, so a fault-free
  // snapshot keeps the exact key set (and bytes) of a pre-liveness build.
  if (config_.liveness_enabled) {
    bind("controller.ap_marked_dead", stats_.aps_marked_dead);
    bind("controller.ap_readmitted", stats_.aps_readmitted);
    bind("controller.forced_failovers", stats_.forced_failovers);
    m.heartbeat_rtt_ms =
        &registry->histogram("controller.heartbeat_rtt_ms", 0.0, 5.0, 100);
  }
  // Domain instruments exist only in multi-domain mode, for the same
  // key-set reason. Shared by name, so every domain controller aggregates
  // into one series.
  if (multi_domain()) {
    bind("controller.handover_requests", stats_.handover_requests);
    bind("domain.handovers_out", stats_.handovers_out);
    bind("domain.handovers_in", stats_.handovers_in);
    bind("domain.handover_retries", stats_.handover_retries);
    bind("domain.handover_aborts", stats_.handover_aborts);
    bind("domain.penalty_blocked", stats_.penalty_blocked);
    bind("domain.csi_forwarded", stats_.csi_forwarded);
    bind("domain.uplink_forwarded", stats_.uplink_forwarded);
    bind("domain.downlink_forwarded", stats_.downlink_forwarded);
    bind("domain.switch_acks_forwarded", stats_.switch_acks_forwarded);
    bind("domain.misrouted_dropped", stats_.misrouted_dropped);
    bind("domain.peers_marked_dead", stats_.peers_marked_dead);
    bind("domain.aps_adopted", stats_.aps_adopted);
    bind("domain.clients_adopted", stats_.clients_adopted);
    bind("domain.ownership_yields", stats_.ownership_yields);
    m.handover_ms =
        &registry->histogram("controller.handover_ms", 0.0, 120.0, 240);
  }
  metrics_ = m;
}

void Controller::add_ap(net::ApId ap) {
  if (std::find(aps_.begin(), aps_.end(), ap) == aps_.end()) aps_.push_back(ap);
  cover_aps(static_cast<std::size_t>(net::index_of(ap)) + 1);
}

void Controller::cover_aps(std::size_t n) {
  if (liveness_.size() >= n) return;
  liveness_.resize(n);
  ap_evicted_.resize(n, false);
  orphaned_.resize(n);
}

void Controller::add_client(net::ClientId client) {
  const auto idx = static_cast<std::size_t>(net::index_of(client));
  if (idx >= clients_.size()) clients_.resize(idx + 1);
  ClientState& cs = clients_[idx];
  if (cs.registered) return;
  cs.registered = true;
  cs.ack_timer = std::make_unique<sim::Timer>(sched_, [this, client] {
    // stop/ack lost: retransmit the switch (paper §3.1.2, 30 ms timeout).
    ClientState* s = state(client);
    if (s == nullptr || !s->switch_pending) return;
    ++stats_.stop_retransmissions;
    send_switch(client, *s);
    s->ack_timer->start(config_.ack_timeout);
  }, sim::EventCategory::kControl);
  if (multi_domain()) {
    cs.domain = std::make_unique<DomainClient>();
    cs.domain->owner_domain = config_.domains.id;
    cs.domain->ho_timer = std::make_unique<sim::Timer>(sched_, [this, client] {
      ClientState* s = state(client);
      if (s == nullptr || !s->domain->ho_pending) return;
      if (s->domain->ho_attempts >= config_.domains.handover_max_retries) {
        // Retry budget spent: the target domain is unreachable. Abort to
        // source — we keep ownership — and bar the target so the argmax
        // does not immediately re-propose it.
        abort_handover(client, *s->domain);
        return;
      }
      ++stats_.handover_retries;
      s->domain->ho_timeout = s->domain->ho_timeout * 2;  // exponential backoff
      send_handover_request(client, *s);
    }, sim::EventCategory::kControl);
  }
}

void Controller::set_domain_map(const DomainMap* map) {
  domain_map_ = map;
  if (!multi_domain() || map == nullptr) return;
  // Forwarded CSI and adopted APs feed foreign AP indices into this
  // controller; every per-AP-index array must span the whole deployment.
  cover_aps(static_cast<std::size_t>(map->num_aps()));
}

void Controller::set_client_owner(net::ClientId client, std::uint32_t owner) {
  ClientState* cs = state(client);
  if (cs == nullptr || !cs->domain) return;
  cs->domain->owned = owner == config_.domains.id;
  cs->domain->owner_domain = owner;
}

Controller::ClientState* Controller::state(net::ClientId client) {
  const auto idx = static_cast<std::size_t>(net::index_of(client));
  if (idx >= clients_.size() || !clients_[idx].registered) return nullptr;
  return &clients_[idx];
}

const Controller::ClientState* Controller::state(net::ClientId client) const {
  const auto idx = static_cast<std::size_t>(net::index_of(client));
  if (idx >= clients_.size() || !clients_[idx].registered) return nullptr;
  return &clients_[idx];
}

void Controller::handle_backhaul(NodeId /*from*/, BackhaulMessage msg) {
  // Fail-stop: a crashed controller handles nothing. The scenario also
  // takes the backhaul node down, so this is belt and braces for messages
  // already in flight at crash time.
  if (crashed_) return;
  std::visit(
      [this](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, net::CsiReport>) {
          handle_csi(m);
        } else if constexpr (std::is_same_v<T, net::UplinkData>) {
          handle_uplink(std::move(m));
        } else if constexpr (std::is_same_v<T, net::SwitchAck>) {
          handle_switch_ack(m);
        } else if constexpr (std::is_same_v<T, net::HeartbeatAck>) {
          answer(NodeId::ap(m.from_ap), m.seq);
        } else if constexpr (std::is_same_v<T, net::CsiForward>) {
          // Forwarded exactly once: a non-owner receiving one drops it
          // rather than re-forwarding, so routing loops cannot form.
          ClientState* cs = state(m.report.client);
          if (cs != nullptr && cs->owned()) {
            process_csi(m.report, *cs);
          } else {
            ++stats_.misrouted_dropped;
          }
        } else if constexpr (std::is_same_v<T, net::UplinkForward>) {
          ClientState* cs = state(m.data.packet.client);
          if (cs != nullptr && cs->owned()) {
            handle_uplink(std::move(m.data));
          } else {
            ++stats_.misrouted_dropped;
          }
        } else if constexpr (std::is_same_v<T, net::DownlinkForward>) {
          ClientState* cs = state(m.packet.client);
          if (cs != nullptr && cs->owned()) {
            send_downlink(std::move(m.packet));
          } else {
            ++stats_.misrouted_dropped;
          }
        } else if constexpr (std::is_same_v<T, net::HandoverRequest>) {
          handle_handover_request(std::move(m));
        } else if constexpr (std::is_same_v<T, net::HandoverAck>) {
          handle_handover_ack(m);
        } else if constexpr (std::is_same_v<T, net::DomainHeartbeat>) {
          // Echoed inline (no processing delay), like the AP heartbeat. A
          // probe from a peer we hold Dead is also an answer in itself.
          const NodeId peer = NodeId::controller(m.src_domain);
          if (!peer_alive(m.src_domain)) answer(peer, m.seq);
          backhaul_.send(self_node(), peer,
                         net::DomainHeartbeatAck{config_.domains.id, m.seq});
        } else if constexpr (std::is_same_v<T, net::DomainHeartbeatAck>) {
          answer(NodeId::controller(m.src_domain), m.seq);
        } else if constexpr (std::is_same_v<T, net::DomainSync>) {
          handle_domain_sync(m);
        }
      },
      std::move(msg));
}

void Controller::handle_csi(const net::CsiReport& report) {
  ++stats_.csi_reports;
  ClientState* cs = state(report.client);
  if (cs == nullptr) return;
  if (!cs->owned()) {
    // Measurement for a client another domain owns (our AP overheard it
    // near the boundary): relay to the believed owner, whose argmax seeing
    // our AP win is exactly what triggers the inter-domain handover.
    relay_to_owner(*cs->domain, net::CsiForward{config_.domains.id, report},
                   stats_.csi_forwarded);
    return;
  }
  process_csi(report, *cs);
}

void Controller::process_csi(const net::CsiReport& report, ClientState& cs) {
  // The controller, not the AP, computes ESNR from raw CSI (§3.1.1). The
  // RSSI variant exists for the selection-metric ablation.
  const double value =
      config_.metric == SelectionMetric::kMedianEsnr
          ? phy::esnr_metric_db(report.measurement.subcarrier_snr_db)
          : report.measurement.rssi_dbm;
  tracker_.add(report.client, report.from_ap, sched_.now(), value);
  maybe_switch(report.client, cs);
}

void Controller::maybe_switch(net::ClientId client, ClientState& cs) {
  if (cs.switch_pending) return;  // at most one outstanding switch
  if (cs.domain && cs.domain->ho_pending) return;  // ... or handover
  ++stats_.selection_evaluations;

  const auto best = tracker_.best_ap(client, sched_.now(), eviction_mask());
  if (!best) return;

  if (multi_domain() && domain_map_ != nullptr) {
    const std::uint32_t target_domain = domain_map_->domain_of_ap(*best);
    if (target_domain != config_.domains.id && !adopted_by_me_[target_domain]) {
      // The winning AP is operated by another controller: an intra-domain
      // start toward it can never complete (its ack goes to its home
      // controller), so this is an inter-domain handover decision.
      consider_handover(client, cs, *best, target_domain);
      return;
    }
  }

  // An unserved client bootstraps onto the best AP outright.
  if (cs.serving &&
      (*best == *cs.serving || !may_replace_serving(client, cs, *best))) {
    return;
  }
  ++cs.epoch;
  begin_switch(client, cs, *best, /*forced=*/false, cs.next_index);
}

bool Controller::may_replace_serving(net::ClientId client,
                                     const ClientState& cs,
                                     net::ApId challenger) {
  if (sched_.now() - cs.last_switch_completed < config_.switch_hysteresis) {
    return false;
  }
  const auto incumbent = tracker_.median(client, *cs.serving, sched_.now());
  if (!incumbent) {
    // No in-window CSI from the serving AP: the window holds a partial view
    // (e.g. only the first report of a burst arrived, or a traffic lull
    // starved the CSI stream). While the serving AP has been silent for
    // less than the stale timeout, judge the challenger against the serving
    // AP's last known value — never trade a known-good AP for a worse one
    // just because the good one was quiet for a beat. Once silence exceeds
    // the timeout, the serving AP is presumed gone and the best known
    // challenger wins unconditionally.
    const auto heard = tracker_.last_heard(client, *cs.serving);
    if (heard && sched_.now() - *heard < config_.serving_stale_timeout) {
      const auto last_known = tracker_.last_value(client, *cs.serving);
      const auto value = tracker_.median(client, challenger, sched_.now());
      return value && last_known &&
             *value > *last_known + config_.switch_margin_db;
    }
  } else if (config_.switch_margin_db > 0.0) {
    const auto value = tracker_.median(client, challenger, sched_.now());
    return !value || *value >= *incumbent + config_.switch_margin_db;
  }
  return true;
}

void Controller::begin_switch(net::ClientId client, ClientState& cs,
                              net::ApId target, bool forced,
                              std::uint16_t first_index) {
  cs.switch_pending = true;
  cs.pending_forced = forced;
  cs.pending_target = target;
  cs.pending_from = cs.serving.value_or(target);
  cs.pending_since = sched_.now();
  cs.pending_first_index = first_index;
  ++stats_.switches_initiated;
  if (on_switch_initiated) {
    on_switch_initiated(client, cs.serving, target, sched_.now());
  }
  // The send draws backhaul jitter and the timer takes a scheduler sequence
  // number: this order is part of every seeded run.
  send_switch(client, cs);
  cs.ack_timer->start(config_.ack_timeout);
}

void Controller::send_switch(net::ClientId client, const ClientState& cs) {
  if (cs.serving && !cs.pending_forced) {
    backhaul_.send(self_node(), NodeId::ap(cs.pending_from),
                   net::StopMsg{client, cs.pending_target, cs.epoch});
  } else {
    // No stop to send: the client is unserved (bootstrap), or the old AP is
    // dead or another domain's. Start the target directly, always with the
    // fan-out index captured at initiation (next_index has kept advancing
    // and would skip everything fanned out since).
    backhaul_.send(self_node(), NodeId::ap(cs.pending_target),
                   net::StartMsg{client, cs.pending_target,
                                 cs.pending_first_index, cs.epoch});
  }
}

void Controller::end_switch(ClientState& cs) {
  cs.ack_timer->cancel();
  cs.switch_pending = false;
  cs.pending_forced = false;
}

void Controller::handle_switch_ack(const net::SwitchAck& msg) {
  ClientState* csp = state(msg.client);
  if (csp == nullptr) return;
  ClientState& cs = *csp;
  if (!cs.owned()) {
    // An AP homed here acked a switch another domain is driving — its
    // stretch was returned (or adopted) while the client's ownership still
    // sits across the boundary. Relay to the believed owner exactly once;
    // without this the owner's switch retransmits forever against an ack
    // that keeps landing on the wrong controller.
    if (msg.relayed) {
      ++stats_.misrouted_dropped;
    } else {
      net::SwitchAck fwd = msg;
      fwd.relayed = true;
      relay_to_owner(*cs.domain, fwd, stats_.switch_acks_forwarded);
    }
    return;
  }
  // Only the ack for the outstanding switch counts: matching on
  // (epoch, target) rather than the sender alone rejects duplicates from a
  // retransmit chain and leftovers of a previous switch to the same AP,
  // either of which could otherwise complete a LATER switch that has not
  // actually happened at the APs.
  if (!cs.switch_pending || msg.from_ap != cs.pending_target ||
      msg.epoch != cs.epoch) {
    ++stats_.stale_acks_ignored;
    return;
  }
  end_switch(cs);
  const net::ApId from = cs.serving.value_or(msg.from_ap);
  cs.serving = msg.from_ap;
  cs.last_switch_completed = sched_.now();
  ++stats_.switches_completed;
  if (metrics_) {
    metrics_->switch_time_ms->observe(
        (sched_.now() - cs.pending_since).to_millis());
  }
  switch_log_.push_back(
      {cs.pending_since, sched_.now(), msg.client, from, msg.from_ap});
  if (on_serving_changed) on_serving_changed(msg.client, msg.from_ap, sched_.now());
}

void Controller::send_downlink(net::Packet packet) {
  ClientState* csp = state(packet.client);
  if (csp == nullptr) return;
  ClientState& cs = *csp;
  if (!cs.owned()) {
    // The server handed us a packet for a client another domain owns
    // (routing lags ownership during a handover): relay it once.
    relay_to_owner(*cs.domain, net::DownlinkForward{config_.domains.id,
                                            std::move(packet)},
                   stats_.downlink_forwarded);
    return;
  }
  ++stats_.downlink_packets;

  const std::uint16_t index = cs.next_index;
  cs.next_index = (cs.next_index + 1) & 0x0fff;  // m = 12 bits
  ++cs.downlink_sent;

  // Fan out to every AP that has recently heard the client. Before any CSI
  // exists (client just joined, or long idle), fall back to all APs — or,
  // with bounded_fallback, to the spatial neighborhood of the client's
  // anchor AP: at 1024 APs the all-AP fallback is a broadcast storm, and
  // any AP that could possibly reach the client is within the neighbor
  // radius of the last AP that heard it. A client with no anchor yet has
  // no known location, so it still gets the full broadcast. Dead and
  // Recovering APs are evicted from the set either way — packets handed to
  // a corpse are packets lost.
  std::vector<net::ApId> targets =
      tracker_.fresh_aps(packet.client, sched_.now(), config_.fanout_freshness);
  if (targets.empty()) {
    const int anchor = config_.bounded_fallback && spatial_ != nullptr
                           ? tracker_.anchor_ap(packet.client)
                           : -1;
    if (anchor >= 0 && anchor < spatial_->num_aps()) {
      for (int n : spatial_->neighbors(spatial_->ap_x(anchor),
                                       neighbor_radius_m_)) {
        targets.push_back(static_cast<net::ApId>(n));
      }
    } else {
      targets = aps_;
    }
  }
  if (config_.liveness_enabled) {
    std::erase_if(targets, [this](net::ApId ap) { return !ap_usable(ap); });
  }
  if (targets.empty()) {
    // Liveness erased every candidate: the packet has nowhere to go. Count
    // and announce the drop instead of letting it vanish silently — at this
    // point the client is effectively partitioned from the deployment and
    // upper layers (TCP, the operator's dashboards) deserve to know.
    ++stats_.fanout_empty_drops;
    if (on_fanout_empty) on_fanout_empty(packet.client, sched_.now());
    return;
  }
  // Single-copy fan-out (DESIGN.md §10): the payload enters the pool once;
  // every target's message copies the Ref (one more reference), and the
  // acquisition reference drops at scope end.
  const auto tunnel_bytes = static_cast<std::uint32_t>(packet.tunnel_bytes());
  const net::PacketPool::Ref payload(payload_pool_,
                                     payload_pool_.acquire(std::move(packet)));
  for (net::ApId ap : targets) {
    ++stats_.downlink_fanout_copies;
    backhaul_.send(self_node(), NodeId::ap(ap),
                   net::DownlinkData{index, payload, tunnel_bytes});
  }
}

bool Controller::dedup_insert(std::uint64_t key) {
  if (dedup_set_.contains(key)) return false;
  // Evict before inserting, with >=: the table never holds more than
  // dedup_capacity keys at any instant. The old post-insert `>` check let
  // it grow to capacity + 1 before evicting — the off-by-one fixed in PR 7
  // (locked by the DedupCapacityBoundary test).
  if (dedup_fifo_.size() >= config_.dedup_capacity) {
    dedup_set_.erase(dedup_fifo_.front());
    dedup_fifo_.pop_front();
  }
  dedup_set_.insert(key);
  dedup_fifo_.push_back(key);
  return true;
}

void Controller::handle_uplink(net::UplinkData&& msg) {
  ++stats_.uplink_packets;
  const ClientState* cs = state(msg.packet.client);
  if (cs != nullptr && !cs->owned()) {
    // Only the owner de-duplicates (its ring is the authoritative one);
    // relay to it.
    relay_to_owner(*cs->domain,
                   net::UplinkForward{config_.domains.id, std::move(msg)},
                   stats_.uplink_forwarded);
    return;
  }
  if (!dedup_insert(dedup_key(msg.packet.client, msg.packet.ip_id))) {
    ++stats_.uplink_duplicates_dropped;
    return;
  }
  ++stats_.uplink_accepted;
  if (metrics_) {
    metrics_->dedup_table_size->set(static_cast<double>(dedup_set_.size()));
  }
  if (on_uplink) on_uplink(msg.packet);
}

// --- Multi-controller domains (DESIGN.md §12) ----------------------------

void Controller::relay_to_owner(const DomainClient& dc,
                                net::BackhaulMessage msg, std::uint64_t& stat) {
  const std::uint32_t owner = dc.owner_domain;
  if (owner != config_.domains.id && peer_alive(owner)) {
    ++stat;
    backhaul_.send(self_node(), NodeId::controller(owner), std::move(msg));
  } else {
    ++stats_.misrouted_dropped;
  }
}

void Controller::consider_handover(net::ClientId client, ClientState& cs,
                                   net::ApId target,
                                   std::uint32_t target_domain) {
  if (penalty_.barred(client, target_domain, sched_.now())) {
    // Boundary flap damping: a recent handover involving this target (in
    // either direction) bars another attempt until the window expires.
    ++stats_.penalty_blocked;
    return;
  }
  if (!peer_alive(target_domain)) return;
  // Same challenger-vs-incumbent discipline as the intra-domain decision:
  // a cross-domain handover is strictly more expensive than a switch, so
  // it clears at least the same bar.
  if (cs.serving && !may_replace_serving(client, cs, target)) return;
  initiate_handover(client, cs, target, target_domain);
}

void Controller::initiate_handover(net::ClientId client, ClientState& cs,
                                   net::ApId target,
                                   std::uint32_t target_domain) {
  DomainClient& dc = *cs.domain;
  dc.ho_pending = true;
  dc.ho_target_domain = target_domain;
  dc.ho_target_ap = target;
  dc.ho_seq = ++ho_seq_counter_;
  dc.ho_attempts = 0;
  dc.ho_started = sched_.now();
  dc.ho_timeout = config_.domains.handover_timeout;
  ++stats_.handover_requests;
  send_handover_request(client, cs);
}

void Controller::send_handover_request(net::ClientId client, ClientState& cs) {
  DomainClient& dc = *cs.domain;
  net::HandoverRequest req;
  req.client = client;
  req.src_domain = config_.domains.id;
  req.target_ap = dc.ho_target_ap;
  req.epoch = cs.epoch;
  // Pre-rewind the transferred watermark so the target replays the tail the
  // boundary APs may hold but have not delivered (the client's duplicate
  // suppression absorbs the overlap, as on forced failover).
  const auto replay = static_cast<std::uint16_t>(std::min<std::uint64_t>(
      config_.failover_replay, cs.downlink_sent));
  req.next_index = static_cast<std::uint16_t>((cs.next_index - replay) & 0x0fff);
  req.downlink_sent = cs.downlink_sent;
  req.dedup_seed = collect_dedup_seed(client);
  req.seq = dc.ho_seq;
  ++dc.ho_attempts;
  backhaul_.send(self_node(), NodeId::controller(dc.ho_target_domain),
                 std::move(req));
  dc.ho_timer->start(dc.ho_timeout);
}

void Controller::abort_handover(net::ClientId client, DomainClient& dc) {
  end_handover(dc);
  penalty_.arm(client, dc.ho_target_domain,
               sched_.now() + config_.domains.penalty_window);
  ++stats_.handover_aborts;
}

void Controller::end_handover(DomainClient& dc) {
  dc.ho_timer->cancel();
  dc.ho_pending = false;
}

std::vector<std::uint32_t> Controller::collect_dedup_seed(
    net::ClientId client) const {
  // Newest-first reverse scan of the dedup FIFO for this client's keys; the
  // target re-inserts them so in-flight uplink duplicates do not leak
  // through right after the transfer.
  std::vector<std::uint32_t> out;
  const std::uint64_t want = dedup_key(client, 0);
  for (auto it = dedup_fifo_.rbegin();
       it != dedup_fifo_.rend() && out.size() < config_.domains.dedup_seed_max;
       ++it) {
    if ((*it & ~std::uint64_t{0xffff}) == want) {
      out.push_back(static_cast<std::uint32_t>(*it & 0xffff));
    }
  }
  return out;
}

void Controller::handle_handover_request(net::HandoverRequest&& msg) {
  ClientState* csp = state(msg.client);
  const auto reply = [&](bool accepted, std::uint32_t epoch) {
    backhaul_.send(self_node(), NodeId::controller(msg.src_domain),
                   net::HandoverAck{msg.client, config_.domains.id, accepted,
                                    msg.seq, epoch});
  };
  if (csp == nullptr || !csp->domain) {
    reply(false, 0);
    return;
  }
  ClientState& cs = *csp;
  DomainClient& dc = *cs.domain;
  if (dc.ho_acc_valid && dc.ho_acc_src == msg.src_domain &&
      dc.ho_acc_seq == msg.seq) {
    // Retransmit of a transfer we already accepted (our ack was lost):
    // replay the ack only — re-applying the state would rewind the epoch
    // and watermark we have since advanced.
    reply(true, cs.epoch);
    return;
  }
  dc.ho_acc_valid = true;
  dc.ho_acc_seq = msg.seq;
  dc.ho_acc_src = msg.src_domain;
  if (dc.owned) {
    // Already ours (gossip or a prior transfer raced the retransmit chain).
    // Accept idempotently without touching the live state.
    reply(true, cs.epoch);
    return;
  }
  // Take ownership: adopt the transferred epoch (advancing past our own
  // stale view), watermark, and dedup seed, then bootstrap the proposed AP
  // from the transferred (pre-rewound) index under a freshly minted epoch.
  dc.owned = true;
  dc.owner_domain = config_.domains.id;
  cs.epoch = std::max(cs.epoch, msg.epoch) + 1;
  cs.next_index = msg.next_index;
  cs.downlink_sent = msg.downlink_sent;
  for (std::uint32_t ip_id : msg.dedup_seed) {
    dedup_insert(dedup_key(msg.client, ip_id));
  }
  end_switch(cs);
  cs.serving.reset();
  ++stats_.handovers_in;
  // Bar an immediate hand-back to the source: the client just crossed the
  // boundary toward us, and flapping straight back is the ping-pong the
  // penalty timer exists to damp.
  penalty_.arm(msg.client, msg.src_domain,
               sched_.now() + config_.domains.penalty_window);
  if (on_ownership_changed) {
    on_ownership_changed(msg.client, config_.domains.id);
  }
  net::ApId target = msg.target_ap;
  if (!ap_usable(target)) {
    const auto best = tracker_.best_ap(msg.client, sched_.now(),
                                       eviction_mask());
    if (!best) {
      // Degraded: accept the transfer (the source's link is worse) but stay
      // unserved until fresh CSI re-bootstraps.
      ++stats_.failovers_unserved;
      reply(true, cs.epoch);
      return;
    }
    target = *best;
  }
  // The old AP (another domain's) can never answer our stop: start the
  // target straight from the transferred watermark.
  begin_switch(msg.client, cs, target, /*forced=*/true, cs.next_index);
  reply(true, cs.epoch);
}

void Controller::handle_handover_ack(const net::HandoverAck& msg) {
  ClientState* csp = state(msg.client);
  if (csp == nullptr || !csp->domain) return;
  ClientState& cs = *csp;
  DomainClient& dc = *cs.domain;
  if (!dc.ho_pending || msg.seq != dc.ho_seq) return;  // stale chain leftover
  if (!msg.accepted) {
    abort_handover(msg.client, dc);
    return;
  }
  end_handover(dc);
  // Ownership released. Stop the old serving AP under the target's minted
  // epoch (strictly newer than the start record it is serving under, so the
  // stop supersedes it); the forwarded start it triggers arrives at the
  // target's AP as a same-epoch duplicate and is answered as an ack replay.
  // When the handover target IS the old serving AP (same radio, new owner —
  // common right after a returned stretch), there is nothing to quench:
  // stopping it would kill the drain the target just bootstrapped.
  const auto old_serving = cs.serving;
  end_switch(cs);
  cs.serving.reset();
  dc.owned = false;
  dc.owner_domain = msg.from_domain;
  ++stats_.handovers_out;
  if (metrics_ && metrics_->handover_ms) {
    metrics_->handover_ms->observe((sched_.now() - dc.ho_started).to_millis());
  }
  if (old_serving && *old_serving != dc.ho_target_ap) {
    backhaul_.send(self_node(), NodeId::ap(*old_serving),
                   net::StopMsg{msg.client, dc.ho_target_ap, msg.epoch});
  }
  // Seed the gossip record with the target's minted epoch so an immediate
  // target crash still adopts from a base at least that fresh.
  if (!dc.gossip || msg.epoch > dc.gossip->epoch) {
    dc.gossip = net::DomainSync::Entry{msg.client, msg.from_domain, msg.epoch,
                                       cs.next_index, cs.downlink_sent, true,
                                       dc.ho_target_ap};
  }
  if (on_ownership_changed) {
    on_ownership_changed(msg.client, msg.from_domain);
  }
}

void Controller::peer_dead(std::uint32_t domain) {
  last_peer_transition_ = sched_.now();
  ++stats_.peers_marked_dead;
  // Handovers in flight toward the corpse can never complete: abort them
  // now instead of burning the whole retry budget.
  for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
    DomainClient* dc = clients_[ci].domain.get();  // null if unregistered
    if (dc != nullptr && dc->ho_pending && dc->ho_target_domain == domain) {
      abort_handover(static_cast<net::ClientId>(ci), *dc);
    }
  }
  reevaluate_adoptions();
}

void Controller::peer_recovered(std::uint32_t domain) {
  last_peer_transition_ = sched_.now();
  ++stats_.peers_recovered;
  if (adopted_by_me_[domain]) return_domain(domain);
  // Responsibilities may shift with the alive set; pick up any dead domain
  // still left without an adopter.
  reevaluate_adoptions();
  // Push our ownership claims at the recovered peer right away rather than
  // waiting out the sync interval: if the "death" was a false positive
  // (lossy heartbeats) we may have adopted clients the peer still believes
  // are its own, and the jumped-epoch claims in this sync are what make it
  // yield. Shortens the dual-ownership window to one backhaul transit.
  backhaul_.send(self_node(), NodeId::controller(domain),
                 build_domain_sync());
}

void Controller::reevaluate_adoptions() {
  if (domain_map_ == nullptr || crashed_) return;
  const std::uint32_t me = config_.domains.id;
  std::vector<bool> alive(peers_.size());
  for (std::uint32_t d = 0; d < peers_.size(); ++d) alive[d] = peer_alive(d);
  for (std::uint32_t d = 0; d < peers_.size(); ++d) {
    if (d == me || alive[d] || adopted_by_me_[d]) continue;
    if (domain_map_->nearest_alive(d, alive) == me) adopt_domain(d);
  }
  // Client sweep, separate from the AP re-homing: a relayed gossip entry
  // can teach us about a dead domain's client long after we adopted its
  // APs, so adoption keys off the believed owner, not the adopt instant.
  for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
    ClientState& cs = clients_[ci];
    if (!cs.registered || cs.domain->owned) continue;
    const std::uint32_t d = cs.domain->owner_domain;
    if (d == me || d >= alive.size() || alive[d]) continue;
    if (domain_map_->nearest_alive(d, alive) == me) {
      adopt_client(static_cast<net::ClientId>(ci), cs);
    }
  }
}

void Controller::adopt_domain(std::uint32_t dead) {
  adopted_by_me_[dead] = true;
  // Re-home the dead domain's APs: they re-point their uplink/CSI/ack path
  // here and join our fan-out fallback set.
  for (std::uint32_t a = domain_map_->first_ap(dead);
       a < domain_map_->last_ap(dead); ++a) {
    const auto ap = static_cast<net::ApId>(a);
    backhaul_.send(self_node(), NodeId::ap(ap),
                   net::AdoptAp{config_.domains.id});
    add_ap(ap);
    ++stats_.aps_adopted;
  }
  // The corpse's clients are picked up by the client sweep in
  // reevaluate_adoptions (the caller), keyed off the believed owner.
}

void Controller::adopt_client(net::ClientId client, ClientState& cs) {
  // Bootstrap from the dead owner's last-gossiped epoch/watermark. The
  // epoch jump leaps over anything it minted after that gossip, so our
  // starts are never stale at the APs.
  DomainClient& dc = *cs.domain;
  dc.owned = true;
  dc.owner_domain = config_.domains.id;
  const std::uint32_t base =
      std::max(cs.epoch, dc.gossip ? dc.gossip->epoch : 0);
  cs.epoch = base + config_.domains.epoch_jump;
  if (dc.gossip) {
    cs.next_index = dc.gossip->next_index;
    cs.downlink_sent = dc.gossip->downlink_sent;
  }
  end_switch(cs);
  end_handover(dc);
  ++stats_.clients_adopted;
  if (on_ownership_changed) {
    on_ownership_changed(client, config_.domains.id);
  }
  if (dc.gossip && dc.gossip->has_serving) {
    // The data plane outlived its controller: the gossiped serving AP is
    // still draining under the dead domain's epoch. Keep it — we only
    // take over routing and ownership; our next measurement-driven
    // switch re-stamps the jumped epoch at the AP layer.
    cs.serving = dc.gossip->serving;
  } else {
    cs.serving.reset();
    const auto target = tracker_.best_ap(client, sched_.now(),
                                         eviction_mask());
    // With no usable CSI anywhere yet the client stays unserved (degraded):
    // the adopted APs' first reports (they now flow here) re-bootstrap it
    // through the normal path.
    if (target) {
      begin_switch(client, cs, *target, /*forced=*/true, cs.next_index);
    }
  }
}

void Controller::return_domain(std::uint32_t recovered) {
  adopted_by_me_[recovered] = false;
  for (std::uint32_t a = domain_map_->first_ap(recovered);
       a < domain_map_->last_ap(recovered); ++a) {
    const auto ap = static_cast<net::ApId>(a);
    backhaul_.send(self_node(), NodeId::ap(ap), net::AdoptAp{recovered});
    std::erase(aps_, ap);
    ++stats_.aps_returned;
  }
  // Clients stay owned here; the measurement-driven handover path migrates
  // them back as soon as the returned APs' CSI (relayed by the recovered
  // controller) wins the argmax.
}

void Controller::domain_sync_tick() {
  const net::DomainSync sync = build_domain_sync();
  for (std::uint32_t d = 0; d < peers_.size(); ++d) {
    if (d == config_.domains.id || !peer_alive(d)) continue;
    backhaul_.send(self_node(), NodeId::controller(d), sync);
  }
  domain_sync_timer_->start(config_.domains.sync_interval);
}

net::DomainSync Controller::build_domain_sync() const {
  net::DomainSync sync;
  sync.src_domain = config_.domains.id;
  const std::uint32_t me = config_.domains.id;
  for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
    const ClientState& cs = clients_[ci];
    if (!cs.registered) continue;
    const DomainClient& dc = *cs.domain;
    if (dc.owned) {
      sync.entries.push_back({static_cast<net::ClientId>(ci), me, cs.epoch,
                              cs.next_index, cs.downlink_sent,
                              cs.serving.has_value(),
                              cs.serving.value_or(net::ApId{})});
    } else if (dc.gossip && dc.owner_domain != me &&
               !peer_alive(dc.owner_domain)) {
      // Relay our last record of a dead owner: the adopter may never have
      // seen the ownership transfer (the owner crashed before gossiping
      // it), and a client nobody speaks for stays orphaned forever.
      sync.entries.push_back(*dc.gossip);
      sync.entries.back().owner = dc.owner_domain;
    }
  }
  return sync;
}

void Controller::handle_domain_sync(const net::DomainSync& msg) {
  const std::uint32_t me = config_.domains.id;
  bool saw_dead_owner = false;
  for (const net::DomainSync::Entry& e : msg.entries) {
    ClientState* csp = state(e.client);
    if (csp == nullptr || !csp->domain) continue;
    ClientState& cs = *csp;
    DomainClient& dc = *cs.domain;
    if (e.owner == me && !dc.owned) {
      // A relayed claim naming us as owner of a client we do not own can
      // only be stale (e.g. we crashed and restarted since); ignore it.
      continue;
    }
    if (dc.owned) {
      // Relays republish a third party's old record; only a direct claim
      // from the sender itself can contest our ownership.
      if (e.owner != msg.src_domain) continue;
      // Split-brain: both sides believe they own the client (an aborted
      // handover whose transfer actually landed, or a crash/adopt race).
      // Yield to the higher epoch; equal epochs break toward the lower
      // domain id so both sides pick the same winner.
      if (e.epoch > cs.epoch ||
          (e.epoch == cs.epoch && msg.src_domain < me)) {
        ++stats_.ownership_yields;
        end_switch(cs);
        end_handover(dc);
        if (cs.serving && !(e.has_serving && e.serving == *cs.serving)) {
          // Quench our AP's drain: an equal-epoch stop supersedes the start
          // record it serves under. new_ap = itself routes the forwarded
          // start back where the record is now a stop — a clean no-op.
          // Skipped when the winner serves through the SAME AP (both sides
          // bootstrapped one radio): its record carries the winner's epoch
          // and the drain is now the winner's to manage, not ours to kill.
          backhaul_.send(self_node(), NodeId::ap(*cs.serving),
                         net::StopMsg{e.client, *cs.serving, cs.epoch});
        }
        cs.serving.reset();
        dc.owned = false;
        dc.owner_domain = msg.src_domain;
        // Seed the gossip record from the winner's entry: if it crashes
        // before its next sync reaches us, adoption still has a fresh base.
        dc.gossip = e;
        if (on_ownership_changed) {
          on_ownership_changed(e.client, msg.src_domain);
        }
      }
    } else {
      // Track the freshest gossip: it names the believed owner for
      // forwarding and seeds the crash-adoption bootstrap.
      if (!dc.gossip || e.epoch >= dc.gossip->epoch) {
        dc.gossip = e;
        dc.owner_domain = e.owner;
      }
      if (e.owner != me && !peer_alive(e.owner)) saw_dead_owner = true;
    }
  }
  // A relay just taught us about clients whose owner is already dead; if
  // we are that domain's adopter, pick them up now rather than leaking
  // them until some unrelated liveness event re-runs the sweep.
  if (saw_dead_owner) reevaluate_adoptions();
}

void Controller::set_crashed(bool crashed) {
  if (crashed == crashed_) return;
  crashed_ = crashed;
  // Peer liveness is volatile, and a restart is cold: peers are presumed
  // alive until probed. The AP table is kept.
  std::fill(peers_.begin(), peers_.end(), LivenessState{});
  if (crashed) {
    // Fail-stop: volatile state dies with the process.
    if (heartbeat_timer_) heartbeat_timer_->cancel();
    if (peer_heartbeat_timer_) peer_heartbeat_timer_->cancel();
    if (domain_sync_timer_) domain_sync_timer_->cancel();
    for (ClientState& cs : clients_) {
      if (!cs.registered) continue;
      end_switch(cs);
      cs.serving.reset();
      if (DomainClient* dc = cs.domain.get()) {
        end_handover(*dc);
        dc->owned = false;
        dc->gossip.reset();
        dc->ho_acc_valid = false;
      }
    }
    // Any adopted APs are no longer operated by anyone until the liveness
    // machinery re-homes them; our AP list reverts to the home stretch.
    if (domain_map_ != nullptr && multi_domain()) {
      aps_.clear();
      for (std::uint32_t a = domain_map_->first_ap(config_.domains.id);
           a < domain_map_->last_ap(config_.domains.id); ++a) {
        aps_.push_back(static_cast<net::ApId>(a));
      }
    }
    std::fill(adopted_by_me_.begin(), adopted_by_me_.end(), false);
  } else {
    // Cold restart: ownership beliefs repopulate from peer gossip (until
    // then cross-domain traffic for unknown owners is counted as misrouted
    // and dropped).
    if (heartbeat_timer_) heartbeat_timer_->start(config_.heartbeat_interval);
    if (peer_heartbeat_timer_) {
      peer_heartbeat_timer_->start(config_.heartbeat_interval);
    }
    if (domain_sync_timer_) {
      domain_sync_timer_->start(config_.domains.sync_interval);
    }
  }
}

bool Controller::owns_client(net::ClientId client) const {
  const ClientState* cs = state(client);
  return cs != nullptr && cs->owned() && !crashed_;
}

bool Controller::handover_pending(net::ClientId client) const {
  const ClientState* cs = state(client);
  return cs != nullptr && cs->domain && cs->domain->ho_pending;
}

std::uint32_t Controller::believed_owner(net::ClientId client) const {
  const ClientState* cs = state(client);
  return cs == nullptr || !cs->domain ? config_.domains.id
                                      : cs->domain->owner_domain;
}

bool Controller::peer_alive(std::uint32_t domain) const {
  if (domain == config_.domains.id) return !crashed_;
  return domain < peers_.size() && peers_[domain].state != ApLiveness::kDead;
}

// --- Liveness: one heartbeat machine over the AP and peer tables --------

bool Controller::ap_usable(net::ApId ap) const {
  const auto idx = static_cast<std::size_t>(net::index_of(ap));
  return idx >= ap_evicted_.size() || !ap_evicted_[idx];
}

Controller::ApHealth Controller::ap_health(net::ApId ap) const {
  if (!config_.liveness_enabled) return {};
  const auto idx = static_cast<std::size_t>(net::index_of(ap));
  if (idx >= liveness_.size()) return {};
  return {liveness_[idx].state, liveness_[idx].since};
}

Controller::LivenessState* Controller::liveness_of(NodeId target) {
  auto& table = target.kind == NodeId::Kind::kAp ? liveness_ : peers_;
  return target.index < table.size() ? &table[target.index] : nullptr;
}

void Controller::probe(NodeId target) {
  LivenessState& ls = *liveness_of(target);
  const bool is_ap = target.kind == NodeId::Kind::kAp;
  // Judge the probe sent last tick before sending the next one, and run
  // the verdict's side effects first. (answered starts true, so no miss
  // accrues before the first probe.)
  if (!ls.answered) {
    ++ls.misses;
    if (ls.state == ApLiveness::kAlive) {
      ls.enter(ApLiveness::kSuspect, sched_.now());
      if (is_ap) ++stats_.aps_marked_suspect;
    }
    if (ls.misses >= config_.heartbeat_miss_threshold &&
        ls.state != ApLiveness::kDead) {
      ls.enter(ApLiveness::kDead, sched_.now());
      if (is_ap) {
        mark_dead(net::ApId{target.index});
      } else {
        peer_dead(target.index);
      }
    }
  }
  readmit_if_due(target, ls);
  ls.answered = false;
  ++ls.seq;
  ls.sent_at = sched_.now();
  if (is_ap) {
    ++stats_.heartbeats_sent;
    backhaul_.send(self_node(), target, net::Heartbeat{ls.seq});
  } else {
    backhaul_.send(self_node(), target,
                   net::DomainHeartbeat{config_.domains.id, ls.seq});
  }
}

void Controller::answer(NodeId target, std::uint32_t seq) {
  LivenessState* ls = liveness_of(target);
  if (ls == nullptr) return;
  const bool is_ap = target.kind == NodeId::Kind::kAp;
  if (is_ap) ++stats_.heartbeat_acks;
  ls->answered = true;
  ls->misses = 0;
  if (is_ap && metrics_ && metrics_->heartbeat_rtt_ms && seq == ls->seq) {
    metrics_->heartbeat_rtt_ms->observe(
        (sched_.now() - ls->sent_at).to_millis());
  }
  if (ls->state == ApLiveness::kDead) {
    // Back from the dead. An AP waits out a backoff that doubles per death,
    // so an oscillating AP cannot thrash the fan-out set, and the first
    // probe due after it readmits the AP. The peer table runs with zero
    // backoff: a peer is readmitted on this answer.
    ls->enter(ApLiveness::kRecovering, sched_.now());
    if (is_ap && ls->backoff == Time::zero()) {
      ls->backoff = config_.readmission_backoff;
    }
    ls->readmit_at = sched_.now() + ls->backoff;
    ls->backoff = std::min(ls->backoff * 2, config_.readmission_backoff_max);
    if (!is_ap) readmit_if_due(target, *ls);
  } else if (ls->state == ApLiveness::kSuspect) {
    ls->enter(ApLiveness::kAlive, sched_.now());
  }
}

void Controller::readmit_if_due(NodeId target, LivenessState& ls) {
  if (ls.state != ApLiveness::kRecovering || sched_.now() < ls.readmit_at) {
    return;
  }
  ls.enter(ApLiveness::kAlive, sched_.now());
  if (target.kind == NodeId::Kind::kAp) {
    readmit(net::ApId{target.index});
  } else {
    peer_recovered(target.index);
  }
}

void Controller::mark_dead(net::ApId ap) {
  const auto idx = static_cast<std::size_t>(net::index_of(ap));
  ap_evicted_[idx] = true;
  ++stats_.aps_marked_dead;
  // Any client whose stream touches the dead AP — serving through it, or
  // mid-switch into or out of it — is failed over immediately rather than
  // waiting out retransmissions toward a corpse. One scan per AP death, in
  // client-index order.
  for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
    ClientState& cs = clients_[ci];
    if (!cs.registered) continue;
    const bool serving_dead = cs.serving && *cs.serving == ap;
    const bool pending_dead =
        cs.switch_pending &&
        (cs.pending_target == ap || cs.pending_from == ap);
    if (serving_dead || pending_dead) {
      // Remember the orphan: if the AP was a zombie (radio up, backhaul
      // down) it still believes it serves this client and must be quenched
      // once it is readmitted.
      const auto client = static_cast<net::ClientId>(ci);
      orphaned_[idx].push_back(client);
      force_failover(client, cs);
    }
  }
}

void Controller::force_failover(net::ClientId client, ClientState& cs) {
  end_switch(cs);
  const auto target = tracker_.best_ap(client, sched_.now(), &ap_evicted_);
  if (!target) {
    // Degraded mode: no usable AP has in-window CSI for this client. Drop
    // to unserved; the next CSI report re-bootstraps through the normal
    // path (and the fan-out keeps reaching every fresh, usable AP).
    cs.serving.reset();
    ++stats_.failovers_unserved;
    return;
  }
  // Mint a new epoch and bootstrap the new AP straight from our own fan-out
  // watermark: the dead AP can never answer a stop, so the normal
  // stop -> start chain is unavailable. Rewinding by failover_replay
  // re-sends the tail the dead AP may have accepted but never delivered;
  // the client's duplicate suppression absorbs the overlap.
  const std::uint16_t replay = static_cast<std::uint16_t>(
      std::min<std::uint64_t>(config_.failover_replay, cs.downlink_sent));
  ++cs.epoch;
  ++stats_.forced_failovers;
  begin_switch(client, cs, *target, /*forced=*/true,
               static_cast<std::uint16_t>((cs.next_index - replay) & 0x0fff));
}

void Controller::readmit(net::ApId ap) {
  const auto idx = static_cast<std::size_t>(net::index_of(ap));
  ap_evicted_[idx] = false;
  ++stats_.aps_readmitted;
  for (net::ClientId client : orphaned_[idx]) quench_orphan(ap, client);
  orphaned_[idx].clear();
}

void Controller::quench_orphan(net::ApId ap, net::ClientId client) {
  ClientState* csp = state(client);
  if (csp == nullptr) return;
  ClientState& cs = *csp;
  // Nothing to quench if the client is unserved or came back through this
  // very AP (a fresh start superseded the zombie's stale serving state).
  if (!cs.serving || *cs.serving == ap) return;
  if (cs.switch_pending) {
    // A stop now could race the in-flight start of the pending switch;
    // retry once the handshake quiesces.
    sched_.schedule_in(config_.heartbeat_interval,
                       [this, ap, client] { quench_orphan(ap, client); },
                       sim::EventCategory::kControl);
    return;
  }
  // The stop carries the client's current epoch: newer than anything the
  // zombie recorded, so it stops serving and forwards a start that the
  // actual serving AP answers as a duplicate (a stale ack we ignore).
  ++stats_.quench_stops;
  backhaul_.send(self_node(), NodeId::ap(ap),
                 net::StopMsg{client, *cs.serving, cs.epoch});
}

std::optional<Controller::ClientDebug> Controller::client_debug(
    net::ClientId client) const {
  const ClientState* cs = state(client);
  if (cs == nullptr) return std::nullopt;
  return static_cast<const ClientDebug&>(*cs);
}

std::optional<net::ApId> Controller::serving_ap(net::ClientId client) const {
  const ClientState* cs = state(client);
  return cs == nullptr ? std::nullopt : cs->serving;
}

std::optional<Time> Controller::pending_switch_since(
    net::ClientId client) const {
  const ClientState* cs = state(client);
  if (cs == nullptr || !cs->switch_pending) return std::nullopt;
  return cs->pending_since;
}

Time Controller::last_switch_completed(net::ClientId client) const {
  const ClientState* cs = state(client);
  return cs == nullptr ? Time::ms(-1'000'000) : cs->last_switch_completed;
}

}  // namespace wgtt::core
