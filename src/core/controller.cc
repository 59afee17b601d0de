#include "core/controller.h"

#include <algorithm>

#include "phy/esnr.h"

namespace wgtt::core {

using net::BackhaulMessage;
using net::NodeId;

Controller::Controller(sim::Scheduler& sched, net::Backhaul& backhaul,
                       Config config)
    : sched_(sched),
      backhaul_(backhaul),
      config_(config),
      tracker_(config.selection_window) {
  backhaul_.attach(self_node(),
                   [this](NodeId from, BackhaulMessage msg) {
                     handle_backhaul(from, std::move(msg));
                   });
  if (config_.liveness_enabled) {
    heartbeat_timer_ = std::make_unique<sim::Timer>(
        sched_, [this] { heartbeat_tick(); }, sim::EventCategory::kControl);
    heartbeat_timer_->start(config_.heartbeat_interval);
  }
  if (multi_domain()) {
    peers_.resize(config_.domains.num_domains);
    adopted_by_me_.assign(config_.domains.num_domains, false);
    domain_hb_timer_ = std::make_unique<sim::Timer>(
        sched_, [this] { domain_heartbeat_tick(); },
        sim::EventCategory::kControl);
    domain_hb_timer_->start(config_.domains.heartbeat_interval);
    domain_sync_timer_ = std::make_unique<sim::Timer>(
        sched_, [this] { domain_sync_tick(); }, sim::EventCategory::kControl);
    domain_sync_timer_->start(config_.domains.sync_interval);
  }
}

void Controller::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_.reset();
    return;
  }
  Metrics m;
  m.csi_reports = &registry->counter("controller.csi_reports");
  m.selection_evaluations =
      &registry->counter("controller.selection_evaluations");
  m.switches_initiated = &registry->counter("controller.switches_initiated");
  m.switches_completed = &registry->counter("controller.switches_completed");
  m.stop_retransmissions =
      &registry->counter("controller.stop_retransmissions");
  m.stale_acks_ignored = &registry->counter("controller.stale_acks_ignored");
  m.downlink_packets = &registry->counter("controller.downlink_packets");
  m.fanout_copies = &registry->counter("controller.fanout_copies");
  m.fanout_empty_drops = &registry->counter("controller.fanout_empty_drops");
  m.uplink_packets = &registry->counter("controller.uplink_packets");
  m.dedup_hits = &registry->counter("controller.dedup_hits");
  m.dedup_misses = &registry->counter("controller.dedup_misses");
  m.dedup_table_size = &registry->gauge("controller.dedup_table_size");
  // 0.25 ms buckets keep the Table-1 percentile estimate well inside the
  // 1 ms agreement bound with the exact trace-derived values.
  m.switch_time_ms =
      &registry->histogram("controller.switch_time_ms", 0.0, 60.0, 240);
  // Liveness instruments exist only when liveness does, so a fault-free
  // snapshot keeps the exact key set (and bytes) of a pre-liveness build.
  if (config_.liveness_enabled) {
    m.ap_marked_dead = &registry->counter("controller.ap_marked_dead");
    m.ap_readmitted = &registry->counter("controller.ap_readmitted");
    m.forced_failovers = &registry->counter("controller.forced_failovers");
    m.heartbeat_rtt_ms =
        &registry->histogram("controller.heartbeat_rtt_ms", 0.0, 5.0, 100);
  }
  // Domain instruments exist only in multi-domain mode, for the same
  // key-set reason. Shared by name, so every domain controller aggregates
  // into one series.
  if (multi_domain()) {
    m.handover_requests = &registry->counter("controller.handover_requests");
    m.handovers_out = &registry->counter("domain.handovers_out");
    m.handovers_in = &registry->counter("domain.handovers_in");
    m.handover_retries = &registry->counter("domain.handover_retries");
    m.handover_aborts = &registry->counter("domain.handover_aborts");
    m.penalty_blocked = &registry->counter("domain.penalty_blocked");
    m.csi_forwarded = &registry->counter("domain.csi_forwarded");
    m.uplink_fwd = &registry->counter("domain.uplink_forwarded");
    m.downlink_fwd = &registry->counter("domain.downlink_forwarded");
    m.switch_acks_fwd = &registry->counter("domain.switch_acks_forwarded");
    m.misrouted_dropped = &registry->counter("domain.misrouted_dropped");
    m.peers_marked_dead = &registry->counter("domain.peers_marked_dead");
    m.aps_adopted = &registry->counter("domain.aps_adopted");
    m.clients_adopted = &registry->counter("domain.clients_adopted");
    m.ownership_yields = &registry->counter("domain.ownership_yields");
    m.handover_ms =
        &registry->histogram("controller.handover_ms", 0.0, 120.0, 240);
  }
  metrics_ = m;
}

void Controller::add_ap(net::ApId ap) {
  if (std::find(aps_.begin(), aps_.end(), ap) == aps_.end()) aps_.push_back(ap);
  const auto idx = static_cast<std::size_t>(net::index_of(ap));
  if (liveness_.size() <= idx) {
    liveness_.resize(idx + 1);
    ap_evicted_.resize(idx + 1, false);
  }
}

void Controller::add_client(net::ClientId client) {
  const auto idx = static_cast<std::size_t>(net::index_of(client));
  if (idx >= clients_.size()) clients_.resize(idx + 1);
  ClientState& cs = clients_[idx];
  if (cs.registered) return;
  cs.registered = true;
  cs.ack_timer = std::make_unique<sim::Timer>(sched_, [this, client] {
    // stop/ack lost: retransmit the stop (paper §3.1.2, 30 ms timeout).
    ClientState* s = state(client);
    if (s == nullptr || !s->switch_pending) return;
    ++stats_.stop_retransmissions;
    if (metrics_) metrics_->stop_retransmissions->inc();
    if (s->pending_forced) {
      // Forced failover: the old AP is dead, so there is no stop to
      // retransmit — resend the bootstrap start to the new AP.
      backhaul_.send(self_node(), NodeId::ap(s->pending_target),
                     net::StartMsg{client, s->pending_target,
                                   s->pending_first_index, s->epoch});
    } else if (s->serving) {
      backhaul_.send(self_node(), NodeId::ap(s->pending_from),
                     net::StopMsg{client, s->pending_target, s->epoch});
    } else {
      // Bootstrap start was lost; resend it directly, with the fan-out
      // index captured at initiation (next_index has kept advancing and
      // would skip everything fanned out since).
      backhaul_.send(self_node(), NodeId::ap(s->pending_target),
                     net::StartMsg{client, s->pending_target,
                                   s->pending_first_index, s->epoch});
    }
    s->ack_timer->start(config_.ack_timeout);
  }, sim::EventCategory::kControl);
  if (multi_domain()) {
    cs.owner_domain = config_.domains.id;
    cs.ho_timer = std::make_unique<sim::Timer>(sched_, [this, client] {
      ClientState* s = state(client);
      if (s == nullptr || !s->ho_pending) return;
      if (s->ho_attempts >= config_.domains.handover_max_retries) {
        // Retry budget spent: the target domain is unreachable. Abort to
        // source — we keep ownership — and bar the target so the argmax
        // does not immediately re-propose it.
        abort_handover(client, *s);
        return;
      }
      ++stats_.handover_retries;
      if (metrics_ && metrics_->handover_retries) {
        metrics_->handover_retries->inc();
      }
      s->ho_timeout = s->ho_timeout * 2;  // exponential backoff
      send_handover_request(client, *s);
    }, sim::EventCategory::kControl);
  }
}

void Controller::set_domain_map(const DomainMap* map) {
  domain_map_ = map;
  if (!multi_domain() || map == nullptr) return;
  // Forwarded CSI and adopted APs feed foreign AP indices into this
  // controller; every per-AP-index array must span the whole deployment.
  const auto total = static_cast<std::size_t>(map->num_aps());
  if (liveness_.size() < total) {
    liveness_.resize(total);
    ap_evicted_.resize(total, false);
  }
}

void Controller::set_client_owner(net::ClientId client, std::uint32_t owner) {
  ClientState* cs = state(client);
  if (cs == nullptr) return;
  cs->owned = owner == config_.domains.id;
  cs->owner_domain = owner;
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

void Controller::set_spatial(const SpatialIndex* index,
                             double neighbor_radius_m) {
  spatial_ = index;
  spatial_radius_m_ = neighbor_radius_m;
  tracker_.set_spatial(index, neighbor_radius_m);
  ap_neighbors_.clear();
  shard_clients_.clear();
  for (ClientState& cs : clients_) cs.shard = -1;
  if (index == nullptr || index->empty()) {
    spatial_ = nullptr;
    return;
  }
  ap_neighbors_.resize(static_cast<std::size_t>(index->num_aps()));
  for (net::ApId ap : aps_) {
    const auto i = static_cast<int>(net::index_of(ap));
    if (i >= index->num_aps()) continue;
    std::vector<int> near = index->neighbors(index->ap_x(i), neighbor_radius_m);
    auto& out = ap_neighbors_[static_cast<std::size_t>(i)];
    out.reserve(near.size());
    for (int n : near) out.push_back(static_cast<net::ApId>(n));
  }
  shard_clients_.resize(static_cast<std::size_t>(index->num_segments()));
  // Clients that already have an anchor (CSI arrived before set_spatial)
  // are sharded immediately; the rest join on their first report.
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (clients_[i].registered && clients_[i].anchor_ap >= 0) {
      update_shard(static_cast<std::uint32_t>(i), clients_[i]);
    }
  }
}

void Controller::update_shard(std::uint32_t client_idx, ClientState& cs) {
  if (spatial_ == nullptr || shard_clients_.empty() || cs.anchor_ap < 0 ||
      cs.anchor_ap >= spatial_->num_aps()) {
    return;
  }
  const int seg = spatial_->segment_of_ap(cs.anchor_ap);
  if (seg == cs.shard) return;
  if (cs.shard >= 0) {
    auto& old = shard_clients_[static_cast<std::size_t>(cs.shard)];
    old.erase(std::remove(old.begin(), old.end(), client_idx), old.end());
  }
  shard_clients_[static_cast<std::size_t>(seg)].push_back(client_idx);
  cs.shard = seg;
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
          handle_heartbeat_ack(m);
        } else if constexpr (std::is_same_v<T, net::CsiForward>) {
          // Forwarded exactly once: a non-owner receiving one drops it
          // rather than re-forwarding, so routing loops cannot form.
          ClientState* cs = state(m.report.client);
          if (cs != nullptr && cs->owned) {
            process_csi(m.report, *cs);
          } else {
            ++stats_.misrouted_dropped;
            if (metrics_ && metrics_->misrouted_dropped) {
              metrics_->misrouted_dropped->inc();
            }
          }
        } else if constexpr (std::is_same_v<T, net::UplinkForward>) {
          ClientState* cs = state(m.data.packet.client);
          if (cs != nullptr && cs->owned) {
            handle_uplink(std::move(m.data));
          } else {
            ++stats_.misrouted_dropped;
            if (metrics_ && metrics_->misrouted_dropped) {
              metrics_->misrouted_dropped->inc();
            }
          }
        } else if constexpr (std::is_same_v<T, net::DownlinkForward>) {
          ClientState* cs = state(m.packet.client);
          if (cs != nullptr && cs->owned) {
            send_downlink(std::move(m.packet));
          } else {
            ++stats_.misrouted_dropped;
            if (metrics_ && metrics_->misrouted_dropped) {
              metrics_->misrouted_dropped->inc();
            }
          }
        } else if constexpr (std::is_same_v<T, net::HandoverRequest>) {
          handle_handover_request(std::move(m));
        } else if constexpr (std::is_same_v<T, net::HandoverAck>) {
          handle_handover_ack(m);
        } else if constexpr (std::is_same_v<T, net::DomainHeartbeat>) {
          // Echoed inline (no processing delay), like the AP heartbeat. A
          // probe from a peer is also liveness evidence in itself.
          if (m.src_domain < peers_.size() && !peers_[m.src_domain].alive) {
            peer_recovered(m.src_domain);
          }
          backhaul_.send(self_node(), NodeId::controller(m.src_domain),
                         net::DomainHeartbeatAck{config_.domains.id, m.seq});
        } else if constexpr (std::is_same_v<T, net::DomainHeartbeatAck>) {
          if (m.src_domain < peers_.size()) {
            PeerState& ps = peers_[m.src_domain];
            ps.ack_since_tick = true;
            ps.misses = 0;
            if (!ps.alive) peer_recovered(m.src_domain);
          }
        } else if constexpr (std::is_same_v<T, net::DomainSync>) {
          handle_domain_sync(m);
        }
      },
      std::move(msg));
}

void Controller::handle_csi(const net::CsiReport& report) {
  ++stats_.csi_reports;
  if (metrics_) metrics_->csi_reports->inc();
  ClientState* cs = state(report.client);
  if (cs == nullptr) return;
  if (multi_domain() && !cs->owned) {
    // Measurement for a client another domain owns (our AP overheard it
    // near the boundary): relay to the believed owner, whose argmax seeing
    // our AP win is exactly what triggers the inter-domain handover.
    forward_csi(report, *cs);
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
  cs.anchor_ap = static_cast<int>(net::index_of(report.from_ap));
  update_shard(net::index_of(report.client), cs);
  maybe_switch(report.client);
}

void Controller::maybe_switch(net::ClientId client) {
  ClientState* csp = state(client);
  if (csp == nullptr) return;
  ClientState& cs = *csp;
  if (cs.switch_pending) return;  // at most one outstanding switch
  if (cs.ho_pending) return;      // ... or one outstanding handover
  if (metrics_) metrics_->selection_evaluations->inc();

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

  if (!cs.serving) {
    bootstrap(client, *best);
    return;
  }
  if (*best == *cs.serving) return;
  if (sched_.now() - cs.last_switch_completed < config_.switch_hysteresis) return;

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
      const auto challenger = tracker_.median(client, *best, sched_.now());
      if (!challenger || !last_known ||
          *challenger <= *last_known + config_.switch_margin_db) {
        return;
      }
    }
  } else if (config_.switch_margin_db > 0.0) {
    const auto challenger = tracker_.median(client, *best, sched_.now());
    if (challenger && *challenger < *incumbent + config_.switch_margin_db) {
      return;
    }
  }
  initiate_switch(client, *best);
}

void Controller::bootstrap(net::ClientId client, net::ApId first_ap) {
  ClientState& cs = *state(client);
  cs.switch_pending = true;
  cs.pending_forced = false;
  cs.pending_target = first_ap;
  cs.pending_from = first_ap;
  cs.pending_since = sched_.now();
  cs.pending_first_index = cs.next_index;
  ++cs.epoch;
  ++stats_.switches_initiated;
  if (metrics_) metrics_->switches_initiated->inc();
  if (on_switch_initiated) {
    on_switch_initiated(client, std::nullopt, first_ap, sched_.now());
  }
  backhaul_.send(self_node(), NodeId::ap(first_ap),
                 net::StartMsg{client, first_ap, cs.pending_first_index,
                               cs.epoch});
  cs.ack_timer->start(config_.ack_timeout);
}

void Controller::initiate_switch(net::ClientId client, net::ApId target) {
  ClientState& cs = *state(client);
  cs.switch_pending = true;
  cs.pending_forced = false;
  cs.pending_target = target;
  cs.pending_from = *cs.serving;
  cs.pending_since = sched_.now();
  ++cs.epoch;
  ++stats_.switches_initiated;
  if (metrics_) metrics_->switches_initiated->inc();
  if (on_switch_initiated) {
    on_switch_initiated(client, cs.serving, target, sched_.now());
  }
  backhaul_.send(self_node(), NodeId::ap(*cs.serving),
                 net::StopMsg{client, target, cs.epoch});
  cs.ack_timer->start(config_.ack_timeout);
}

void Controller::handle_switch_ack(const net::SwitchAck& msg) {
  ClientState* csp = state(msg.client);
  if (csp == nullptr) return;
  ClientState& cs = *csp;
  if (multi_domain() && !cs.owned) {
    // An AP homed here acked a switch another domain is driving — its
    // stretch was returned (or adopted) while the client's ownership still
    // sits across the boundary. Relay to the believed owner exactly once;
    // without this the owner's switch retransmits forever against an ack
    // that keeps landing on the wrong controller.
    const std::uint32_t owner = cs.owner_domain;
    if (!msg.relayed && owner < peers_.size() &&
        owner != config_.domains.id && peers_[owner].alive) {
      net::SwitchAck fwd = msg;
      fwd.relayed = true;
      ++stats_.switch_acks_forwarded;
      if (metrics_ && metrics_->switch_acks_fwd) {
        metrics_->switch_acks_fwd->inc();
      }
      backhaul_.send(self_node(), NodeId::controller(owner), fwd);
    } else {
      ++stats_.misrouted_dropped;
      if (metrics_ && metrics_->misrouted_dropped) {
        metrics_->misrouted_dropped->inc();
      }
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
    if (metrics_) metrics_->stale_acks_ignored->inc();
    return;
  }
  cs.ack_timer->cancel();
  cs.switch_pending = false;
  cs.pending_forced = false;
  const net::ApId from = cs.serving.value_or(msg.from_ap);
  cs.serving = msg.from_ap;
  cs.last_switch_completed = sched_.now();
  ++stats_.switches_completed;
  if (metrics_) {
    metrics_->switches_completed->inc();
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
  if (multi_domain() && !cs.owned) {
    // The server handed us a packet for a client another domain owns
    // (routing lags ownership during a handover): relay it once.
    forward_downlink(std::move(packet), cs);
    return;
  }
  ++stats_.downlink_packets;
  if (metrics_) metrics_->downlink_packets->inc();

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
    if (config_.bounded_fallback && spatial_ != nullptr && cs.anchor_ap >= 0 &&
        static_cast<std::size_t>(cs.anchor_ap) < ap_neighbors_.size()) {
      targets = ap_neighbors_[static_cast<std::size_t>(cs.anchor_ap)];
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
    if (metrics_) metrics_->fanout_empty_drops->inc();
    if (on_fanout_empty) on_fanout_empty(packet.client, sched_.now());
    return;
  }
  if (payload_pool_ != nullptr) {
    // Single-copy fan-out (DESIGN.md §10): the payload enters the pool
    // once; every target gets a 4-byte handle plus one reference. The
    // wire size is cached in the message so backhaul latency accounting
    // never touches the pool.
    const auto tunnel_bytes = static_cast<std::uint32_t>(packet.tunnel_bytes());
    const net::PacketPool::Handle h = payload_pool_->acquire(std::move(packet));
    for (net::ApId ap : targets) {
      ++stats_.downlink_fanout_copies;
      payload_pool_->add_ref(h);
      net::DownlinkData msg;
      msg.index = index;
      msg.handle = h;
      msg.tunnel_bytes = tunnel_bytes;
      backhaul_.send(self_node(), NodeId::ap(ap), std::move(msg));
    }
    payload_pool_->drop(h);  // the acquisition reference; targets hold theirs
  } else {
    for (net::ApId ap : targets) {
      ++stats_.downlink_fanout_copies;
      backhaul_.send(self_node(), NodeId::ap(ap),
                     net::DownlinkData{packet, index});
    }
  }
  if (metrics_) metrics_->fanout_copies->inc(targets.size());
}

bool Controller::dedup_accept(const net::Packet& p) {
  // 48-bit key: 32-bit source identity (client) + 16-bit IP-ID (§3.2.2).
  const std::uint64_t key =
      (static_cast<std::uint64_t>(net::index_of(p.client)) << 16) | p.ip_id;
  if (dedup_set_.contains(key)) {
    if (metrics_) metrics_->dedup_hits->inc();
    return false;
  }
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
  if (metrics_) {
    metrics_->dedup_misses->inc();
    metrics_->dedup_table_size->set(static_cast<double>(dedup_set_.size()));
  }
  return true;
}

void Controller::handle_uplink(net::UplinkData&& msg) {
  ++stats_.uplink_packets;
  if (metrics_) metrics_->uplink_packets->inc();
  if (multi_domain()) {
    ClientState* cs = state(msg.packet.client);
    if (cs != nullptr && !cs->owned) {
      // Only the owner de-duplicates (its ring is the authoritative one);
      // relay to it.
      forward_uplink(std::move(msg), *cs);
      return;
    }
  }
  if (!dedup_accept(msg.packet)) {
    ++stats_.uplink_duplicates_dropped;
    return;
  }
  if (on_uplink) on_uplink(msg.packet);
}

// --- Multi-controller domains (DESIGN.md §12) ----------------------------

void Controller::forward_csi(const net::CsiReport& report, ClientState& cs) {
  const std::uint32_t owner = cs.owner_domain;
  if (owner < peers_.size() && owner != config_.domains.id &&
      peers_[owner].alive) {
    ++stats_.csi_forwarded;
    if (metrics_ && metrics_->csi_forwarded) metrics_->csi_forwarded->inc();
    backhaul_.send(self_node(), NodeId::controller(owner),
                   net::CsiForward{config_.domains.id, report});
  } else {
    ++stats_.misrouted_dropped;
    if (metrics_ && metrics_->misrouted_dropped) {
      metrics_->misrouted_dropped->inc();
    }
  }
}

void Controller::forward_uplink(net::UplinkData&& msg, ClientState& cs) {
  const std::uint32_t owner = cs.owner_domain;
  if (owner < peers_.size() && owner != config_.domains.id &&
      peers_[owner].alive) {
    ++stats_.uplink_forwarded;
    if (metrics_ && metrics_->uplink_fwd) metrics_->uplink_fwd->inc();
    backhaul_.send(self_node(), NodeId::controller(owner),
                   net::UplinkForward{config_.domains.id, std::move(msg)});
  } else {
    ++stats_.misrouted_dropped;
    if (metrics_ && metrics_->misrouted_dropped) {
      metrics_->misrouted_dropped->inc();
    }
  }
}

void Controller::forward_downlink(net::Packet&& packet, ClientState& cs) {
  const std::uint32_t owner = cs.owner_domain;
  if (owner < peers_.size() && owner != config_.domains.id &&
      peers_[owner].alive) {
    ++stats_.downlink_forwarded;
    if (metrics_ && metrics_->downlink_fwd) metrics_->downlink_fwd->inc();
    backhaul_.send(self_node(), NodeId::controller(owner),
                   net::DownlinkForward{config_.domains.id, std::move(packet)});
  } else {
    ++stats_.misrouted_dropped;
    if (metrics_ && metrics_->misrouted_dropped) {
      metrics_->misrouted_dropped->inc();
    }
  }
}

void Controller::consider_handover(net::ClientId client, ClientState& cs,
                                   net::ApId target,
                                   std::uint32_t target_domain) {
  if (penalty_.barred(client, target_domain, sched_.now())) {
    // Boundary flap damping: a recent handover involving this target (in
    // either direction) bars another attempt until the window expires.
    ++stats_.penalty_blocked;
    if (metrics_ && metrics_->penalty_blocked) {
      metrics_->penalty_blocked->inc();
    }
    return;
  }
  if (target_domain >= peers_.size() || !peers_[target_domain].alive) return;
  if (cs.serving) {
    if (sched_.now() - cs.last_switch_completed < config_.switch_hysteresis) {
      return;
    }
    // Same challenger-vs-incumbent discipline as the intra-domain decision:
    // a cross-domain handover is strictly more expensive than a switch, so
    // it clears at least the same bar.
    const auto incumbent = tracker_.median(client, *cs.serving, sched_.now());
    if (!incumbent) {
      const auto heard = tracker_.last_heard(client, *cs.serving);
      if (heard && sched_.now() - *heard < config_.serving_stale_timeout) {
        const auto last_known = tracker_.last_value(client, *cs.serving);
        const auto challenger = tracker_.median(client, target, sched_.now());
        if (!challenger || !last_known ||
            *challenger <= *last_known + config_.switch_margin_db) {
          return;
        }
      }
    } else if (config_.switch_margin_db > 0.0) {
      const auto challenger = tracker_.median(client, target, sched_.now());
      if (challenger && *challenger < *incumbent + config_.switch_margin_db) {
        return;
      }
    }
  }
  initiate_handover(client, cs, target, target_domain);
}

void Controller::initiate_handover(net::ClientId client, ClientState& cs,
                                   net::ApId target,
                                   std::uint32_t target_domain) {
  cs.ho_pending = true;
  cs.ho_target_domain = target_domain;
  cs.ho_target_ap = target;
  cs.ho_seq = ++ho_seq_counter_;
  cs.ho_attempts = 0;
  cs.ho_started = sched_.now();
  cs.ho_timeout = config_.domains.handover_timeout;
  ++stats_.handover_requests;
  if (metrics_ && metrics_->handover_requests) {
    metrics_->handover_requests->inc();
  }
  send_handover_request(client, cs);
}

void Controller::send_handover_request(net::ClientId client, ClientState& cs) {
  net::HandoverRequest req;
  req.client = client;
  req.src_domain = config_.domains.id;
  req.target_ap = cs.ho_target_ap;
  req.epoch = cs.epoch;
  // Pre-rewind the transferred watermark so the target replays the tail the
  // boundary APs may hold but have not delivered (the client's duplicate
  // suppression absorbs the overlap, as on forced failover).
  const auto replay = static_cast<std::uint16_t>(std::min<std::uint64_t>(
      config_.domains.handover_replay, cs.downlink_sent));
  req.next_index = static_cast<std::uint16_t>((cs.next_index - replay) & 0x0fff);
  req.downlink_sent = cs.downlink_sent;
  req.dedup_seed = collect_dedup_seed(client);
  req.seq = cs.ho_seq;
  ++cs.ho_attempts;
  backhaul_.send(self_node(), NodeId::controller(cs.ho_target_domain),
                 std::move(req));
  cs.ho_timer->start(cs.ho_timeout);
}

void Controller::abort_handover(net::ClientId client, ClientState& cs) {
  cs.ho_pending = false;
  cs.ho_timer->cancel();
  penalty_.arm(client, cs.ho_target_domain,
               sched_.now() + config_.domains.penalty_window);
  ++stats_.handover_aborts;
  if (metrics_ && metrics_->handover_aborts) {
    metrics_->handover_aborts->inc();
  }
}

std::vector<std::uint32_t> Controller::collect_dedup_seed(
    net::ClientId client) const {
  // Newest-first reverse scan of the dedup FIFO for this client's keys; the
  // target re-inserts them so in-flight uplink duplicates do not leak
  // through right after the transfer.
  std::vector<std::uint32_t> out;
  const std::uint64_t want =
      static_cast<std::uint64_t>(net::index_of(client)) << 16;
  for (auto it = dedup_fifo_.rbegin();
       it != dedup_fifo_.rend() && out.size() < config_.domains.dedup_seed_max;
       ++it) {
    if ((*it & ~std::uint64_t{0xffff}) == want) {
      out.push_back(static_cast<std::uint32_t>(*it & 0xffff));
    }
  }
  return out;
}

void Controller::seed_dedup(net::ClientId client, std::uint32_t ip_id) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(net::index_of(client)) << 16) |
      (ip_id & 0xffff);
  if (dedup_set_.contains(key)) return;
  if (dedup_fifo_.size() >= config_.dedup_capacity) {
    dedup_set_.erase(dedup_fifo_.front());
    dedup_fifo_.pop_front();
  }
  dedup_set_.insert(key);
  dedup_fifo_.push_back(key);
}

void Controller::handle_handover_request(net::HandoverRequest&& msg) {
  ClientState* csp = state(msg.client);
  const NodeId src = NodeId::controller(msg.src_domain);
  if (csp == nullptr) {
    backhaul_.send(self_node(), src,
                   net::HandoverAck{msg.client, config_.domains.id, false,
                                    msg.seq, 0});
    return;
  }
  ClientState& cs = *csp;
  if (cs.ho_acc_valid && cs.ho_acc_src == msg.src_domain &&
      cs.ho_acc_seq == msg.seq) {
    // Retransmit of a transfer we already accepted (our ack was lost):
    // replay the ack only — re-applying the state would rewind the epoch
    // and watermark we have since advanced.
    backhaul_.send(self_node(), src,
                   net::HandoverAck{msg.client, config_.domains.id, true,
                                    msg.seq, cs.epoch});
    return;
  }
  if (cs.owned) {
    // Already ours (gossip or a prior transfer raced the retransmit chain).
    // Accept idempotently without touching the live state.
    cs.ho_acc_valid = true;
    cs.ho_acc_seq = msg.seq;
    cs.ho_acc_src = msg.src_domain;
    backhaul_.send(self_node(), src,
                   net::HandoverAck{msg.client, config_.domains.id, true,
                                    msg.seq, cs.epoch});
    return;
  }
  // Take ownership: adopt the transferred epoch (advancing past our own
  // stale view), watermark, and dedup seed, then bootstrap the proposed AP
  // from the transferred (pre-rewound) index under a freshly minted epoch.
  cs.owned = true;
  cs.owner_domain = config_.domains.id;
  cs.epoch = std::max(cs.epoch, msg.epoch) + 1;
  cs.next_index = msg.next_index;
  cs.downlink_sent = msg.downlink_sent;
  for (std::uint32_t ip_id : msg.dedup_seed) seed_dedup(msg.client, ip_id);
  cs.ack_timer->cancel();
  cs.switch_pending = false;
  cs.pending_forced = false;
  cs.serving.reset();
  cs.ho_acc_valid = true;
  cs.ho_acc_seq = msg.seq;
  cs.ho_acc_src = msg.src_domain;
  ++stats_.handovers_in;
  if (metrics_ && metrics_->handovers_in) metrics_->handovers_in->inc();
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
    if (best) {
      target = *best;
    } else {
      // Degraded: accept the transfer (the source's link is worse) but stay
      // unserved until fresh CSI re-bootstraps.
      ++stats_.failovers_unserved;
      backhaul_.send(self_node(), src,
                     net::HandoverAck{msg.client, config_.domains.id, true,
                                      msg.seq, cs.epoch});
      return;
    }
  }
  bootstrap_forced(msg.client, cs, target);
  backhaul_.send(self_node(), src,
                 net::HandoverAck{msg.client, config_.domains.id, true,
                                  msg.seq, cs.epoch});
}

void Controller::bootstrap_forced(net::ClientId client, ClientState& cs,
                                  net::ApId target) {
  // force_failover's bootstrap tail under the ALREADY-minted epoch: the
  // old AP (another domain's, or a corpse's) can never answer a stop, so
  // the start goes straight from our watermark.
  cs.switch_pending = true;
  cs.pending_forced = true;
  cs.pending_target = target;
  cs.pending_from = target;
  cs.pending_since = sched_.now();
  cs.pending_first_index = cs.next_index;
  ++stats_.switches_initiated;
  if (metrics_) metrics_->switches_initiated->inc();
  if (on_switch_initiated) {
    on_switch_initiated(client, std::nullopt, target, sched_.now());
  }
  backhaul_.send(self_node(), NodeId::ap(target),
                 net::StartMsg{client, target, cs.pending_first_index,
                               cs.epoch});
  cs.ack_timer->start(config_.ack_timeout);
}

void Controller::handle_handover_ack(const net::HandoverAck& msg) {
  ClientState* csp = state(msg.client);
  if (csp == nullptr) return;
  ClientState& cs = *csp;
  if (!cs.ho_pending || msg.seq != cs.ho_seq) return;  // stale chain leftover
  cs.ho_timer->cancel();
  cs.ho_pending = false;
  if (!msg.accepted) {
    penalty_.arm(msg.client, cs.ho_target_domain,
                 sched_.now() + config_.domains.penalty_window);
    ++stats_.handover_aborts;
    if (metrics_ && metrics_->handover_aborts) {
      metrics_->handover_aborts->inc();
    }
    return;
  }
  // Ownership released. Stop the old serving AP under the target's minted
  // epoch (strictly newer than the start record it is serving under, so the
  // stop supersedes it); the forwarded start it triggers arrives at the
  // target's AP as a same-epoch duplicate and is answered as an ack replay.
  // When the handover target IS the old serving AP (same radio, new owner —
  // common right after a returned stretch), there is nothing to quench:
  // stopping it would kill the drain the target just bootstrapped.
  const auto old_serving = cs.serving;
  cs.ack_timer->cancel();
  cs.switch_pending = false;
  cs.pending_forced = false;
  cs.serving.reset();
  cs.owned = false;
  cs.owner_domain = msg.from_domain;
  ++stats_.handovers_out;
  if (metrics_) {
    if (metrics_->handovers_out) metrics_->handovers_out->inc();
    if (metrics_->handover_ms) {
      metrics_->handover_ms->observe((sched_.now() - cs.ho_started).to_millis());
    }
  }
  if (old_serving && *old_serving != cs.ho_target_ap) {
    backhaul_.send(self_node(), NodeId::ap(*old_serving),
                   net::StopMsg{msg.client, cs.ho_target_ap, msg.epoch});
  }
  // Seed the gossip record with the target's minted epoch so an immediate
  // target crash still adopts from a base at least that fresh.
  if (msg.epoch > cs.gossip_epoch || !cs.gossip_valid) {
    cs.gossip_valid = true;
    cs.gossip_epoch = msg.epoch;
    cs.gossip_next_index = cs.next_index;
    cs.gossip_downlink_sent = cs.downlink_sent;
    cs.gossip_has_serving = true;
    cs.gossip_serving = cs.ho_target_ap;
  }
  if (on_ownership_changed) {
    on_ownership_changed(msg.client, msg.from_domain);
  }
}

void Controller::domain_heartbeat_tick() {
  const std::uint32_t me = config_.domains.id;
  for (std::uint32_t d = 0; d < peers_.size(); ++d) {
    if (d == me) continue;
    PeerState& ps = peers_[d];
    // Judge the probe sent last tick before sending the next one (the
    // PR-5 AP-heartbeat discipline, peer-to-peer).
    if (!ps.ack_since_tick) {
      ++ps.misses;
      if (ps.misses >= config_.domains.miss_threshold && ps.alive) {
        peer_dead(d);
      }
    }
    ps.ack_since_tick = false;
    ++ps.hb_seq;
    backhaul_.send(self_node(), NodeId::controller(d),
                   net::DomainHeartbeat{me, ps.hb_seq});
  }
  domain_hb_timer_->start(config_.domains.heartbeat_interval);
}

void Controller::peer_dead(std::uint32_t domain) {
  PeerState& ps = peers_[domain];
  ps.alive = false;
  ps.state_since = sched_.now();
  last_peer_transition_ = sched_.now();
  ++stats_.peers_marked_dead;
  if (metrics_ && metrics_->peers_marked_dead) {
    metrics_->peers_marked_dead->inc();
  }
  // Handovers in flight toward the corpse can never complete: abort them
  // now instead of burning the whole retry budget.
  for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
    ClientState& cs = clients_[ci];
    if (cs.registered && cs.ho_pending && cs.ho_target_domain == domain) {
      abort_handover(static_cast<net::ClientId>(ci), cs);
    }
  }
  reevaluate_adoptions();
}

void Controller::peer_recovered(std::uint32_t domain) {
  PeerState& ps = peers_[domain];
  ps.alive = true;
  ps.misses = 0;
  ps.ack_since_tick = true;
  ps.state_since = sched_.now();
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
  for (std::uint32_t d = 0; d < peers_.size(); ++d) {
    alive[d] = d == me ? true : peers_[d].alive;
  }
  for (std::uint32_t d = 0; d < peers_.size(); ++d) {
    if (d == me || alive[d] || adopted_by_me_[d]) continue;
    if (domain_map_->nearest_alive(d, alive) == me) adopt_domain(d);
  }
  // Client sweep, separate from the AP re-homing: a relayed gossip entry
  // can teach us about a dead domain's client long after we adopted its
  // APs, so adoption keys off the believed owner, not the adopt instant.
  for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
    ClientState& cs = clients_[ci];
    if (!cs.registered || cs.owned) continue;
    const std::uint32_t d = cs.owner_domain;
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
    if (metrics_ && metrics_->aps_adopted) metrics_->aps_adopted->inc();
  }
  // The corpse's clients are picked up by the client sweep in
  // reevaluate_adoptions (the caller), keyed off the believed owner.
}

void Controller::adopt_client(net::ClientId client, ClientState& cs) {
  // Bootstrap from the dead owner's last-gossiped epoch/watermark. The
  // epoch jump leaps over anything it minted after that gossip, so our
  // starts are never stale at the APs.
  cs.owned = true;
  cs.owner_domain = config_.domains.id;
  const std::uint32_t base =
      std::max(cs.epoch, cs.gossip_valid ? cs.gossip_epoch : 0);
  cs.epoch = base + config_.domains.epoch_jump;
  if (cs.gossip_valid) {
    cs.next_index = cs.gossip_next_index;
    cs.downlink_sent = cs.gossip_downlink_sent;
  }
  cs.ack_timer->cancel();
  cs.switch_pending = false;
  cs.pending_forced = false;
  if (cs.ho_timer) cs.ho_timer->cancel();
  cs.ho_pending = false;
  ++stats_.clients_adopted;
  if (metrics_ && metrics_->clients_adopted) {
    metrics_->clients_adopted->inc();
  }
  if (on_ownership_changed) {
    on_ownership_changed(client, config_.domains.id);
  }
  if (cs.gossip_valid && cs.gossip_has_serving) {
    // The data plane outlived its controller: the gossiped serving AP is
    // still draining under the dead domain's epoch. Keep it — we only
    // take over routing and ownership; our next measurement-driven
    // switch re-stamps the jumped epoch at the AP layer.
    cs.serving = cs.gossip_serving;
  } else {
    cs.serving.reset();
    const auto target = tracker_.best_ap(client, sched_.now(),
                                         eviction_mask());
    if (target) {
      bootstrap_forced(client, cs, *target);
    } else {
      // Degraded: no usable CSI anywhere yet. The adopted APs' first
      // reports (they now flow here) re-bootstrap through the normal path.
      ++stats_.adopted_unserved;
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
    if (d == config_.domains.id || !peers_[d].alive) continue;
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
    if (cs.owned) {
      sync.entries.push_back({static_cast<net::ClientId>(ci), me, cs.epoch,
                              cs.next_index, cs.downlink_sent,
                              cs.serving.has_value(),
                              cs.serving.value_or(net::ApId{})});
    } else if (cs.gossip_valid && cs.owner_domain != me &&
               cs.owner_domain < peers_.size() &&
               !peers_[cs.owner_domain].alive) {
      // Relay our last record of a dead owner: the adopter may never have
      // seen the ownership transfer (the owner crashed before gossiping
      // it), and a client nobody speaks for stays orphaned forever.
      sync.entries.push_back({static_cast<net::ClientId>(ci),
                              cs.owner_domain, cs.gossip_epoch,
                              cs.gossip_next_index, cs.gossip_downlink_sent,
                              cs.gossip_has_serving, cs.gossip_serving});
    }
  }
  return sync;
}

void Controller::handle_domain_sync(const net::DomainSync& msg) {
  const std::uint32_t me = config_.domains.id;
  bool saw_dead_owner = false;
  for (const net::DomainSync::Entry& e : msg.entries) {
    ClientState* csp = state(e.client);
    if (csp == nullptr) continue;
    ClientState& cs = *csp;
    if (e.owner == me && !cs.owned) {
      // A relayed claim naming us as owner of a client we do not own can
      // only be stale (e.g. we crashed and restarted since); ignore it.
      continue;
    }
    if (cs.owned) {
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
        if (metrics_ && metrics_->ownership_yields) {
          metrics_->ownership_yields->inc();
        }
        cs.ack_timer->cancel();
        cs.switch_pending = false;
        cs.pending_forced = false;
        if (cs.ho_timer) cs.ho_timer->cancel();
        cs.ho_pending = false;
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
        cs.owned = false;
        cs.owner_domain = msg.src_domain;
        // Seed the gossip record from the winner's entry: if it crashes
        // before its next sync reaches us, adoption still has a fresh base.
        cs.gossip_valid = true;
        cs.gossip_epoch = e.epoch;
        cs.gossip_next_index = e.next_index;
        cs.gossip_downlink_sent = e.downlink_sent;
        cs.gossip_has_serving = e.has_serving;
        cs.gossip_serving = e.serving;
        if (on_ownership_changed) {
          on_ownership_changed(e.client, msg.src_domain);
        }
      }
    } else {
      // Track the freshest gossip: it names the believed owner for
      // forwarding and seeds the crash-adoption bootstrap.
      if (!cs.gossip_valid || e.epoch >= cs.gossip_epoch) {
        cs.gossip_valid = true;
        cs.gossip_epoch = e.epoch;
        cs.gossip_next_index = e.next_index;
        cs.gossip_downlink_sent = e.downlink_sent;
        cs.gossip_has_serving = e.has_serving;
        cs.gossip_serving = e.serving;
        cs.owner_domain = e.owner;
      }
      if (e.owner < peers_.size() && e.owner != me &&
          !peers_[e.owner].alive) {
        saw_dead_owner = true;
      }
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
  if (crashed) {
    // Fail-stop: volatile state dies with the process.
    if (heartbeat_timer_) heartbeat_timer_->cancel();
    if (domain_hb_timer_) domain_hb_timer_->cancel();
    if (domain_sync_timer_) domain_sync_timer_->cancel();
    for (ClientState& cs : clients_) {
      if (!cs.registered) continue;
      cs.ack_timer->cancel();
      if (cs.ho_timer) cs.ho_timer->cancel();
      cs.switch_pending = false;
      cs.pending_forced = false;
      cs.ho_pending = false;
      cs.owned = false;
      cs.serving.reset();
      cs.gossip_valid = false;
      cs.ho_acc_valid = false;
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
    for (std::size_t d = 0; d < adopted_by_me_.size(); ++d) {
      adopted_by_me_[d] = false;
    }
    for (PeerState& ps : peers_) ps = PeerState{};
  } else {
    // Cold restart: peers presumed alive until probed; ownership beliefs
    // repopulate from their gossip (until then cross-domain traffic for
    // unknown owners is counted as misrouted and dropped).
    for (PeerState& ps : peers_) {
      ps = PeerState{};
      ps.state_since = sched_.now();
    }
    if (config_.liveness_enabled && heartbeat_timer_) {
      heartbeat_timer_->start(config_.heartbeat_interval);
    }
    if (domain_hb_timer_) {
      domain_hb_timer_->start(config_.domains.heartbeat_interval);
    }
    if (domain_sync_timer_) {
      domain_sync_timer_->start(config_.domains.sync_interval);
    }
  }
}

bool Controller::owns_client(net::ClientId client) const {
  const ClientState* cs = state(client);
  return cs != nullptr && cs->owned && !crashed_;
}

bool Controller::handover_pending(net::ClientId client) const {
  const ClientState* cs = state(client);
  return cs != nullptr && cs->ho_pending;
}

std::uint32_t Controller::believed_owner(net::ClientId client) const {
  const ClientState* cs = state(client);
  return cs == nullptr ? config_.domains.id : cs->owner_domain;
}

bool Controller::peer_alive(std::uint32_t domain) const {
  if (domain == config_.domains.id) return !crashed_;
  return domain < peers_.size() && peers_[domain].alive;
}

// --- AP liveness & forced failover --------------------------------------

bool Controller::ap_usable(net::ApId ap) const {
  const auto idx = static_cast<std::size_t>(net::index_of(ap));
  return idx >= ap_evicted_.size() || !ap_evicted_[idx];
}

Controller::ApHealth Controller::ap_health(net::ApId ap) const {
  if (!config_.liveness_enabled) return {};
  const auto idx = static_cast<std::size_t>(net::index_of(ap));
  if (idx >= liveness_.size()) return {};
  return {liveness_[idx].state, liveness_[idx].state_since};
}

void Controller::heartbeat_tick() {
  for (net::ApId ap : aps_) {
    const auto idx = static_cast<std::size_t>(net::index_of(ap));
    LivenessState& ls = liveness_[idx];
    // Judge the probe sent last tick before sending the next one.
    // (ack_since_tick starts true, so no miss accrues before first probe.)
    if (!ls.ack_since_tick) {
      ++ls.misses;
      if (ls.state == ApLiveness::kAlive) {
        ls.state = ApLiveness::kSuspect;
        ls.state_since = sched_.now();
        ++stats_.aps_marked_suspect;
      }
      if (ls.misses >= config_.heartbeat_miss_threshold &&
          ls.state != ApLiveness::kDead) {
        mark_dead(ap);
      }
    }
    if (ls.state == ApLiveness::kRecovering &&
        sched_.now() >= ls.readmit_at) {
      readmit(ap);
    }
    ls.ack_since_tick = false;
    ++ls.hb_seq;
    ls.hb_sent_at = sched_.now();
    ++stats_.heartbeats_sent;
    backhaul_.send(self_node(), NodeId::ap(ap),
                   net::Heartbeat{ls.hb_seq});
  }
  heartbeat_timer_->start(config_.heartbeat_interval);
}

void Controller::handle_heartbeat_ack(const net::HeartbeatAck& msg) {
  const auto idx = static_cast<std::size_t>(net::index_of(msg.from_ap));
  if (idx >= liveness_.size()) return;
  LivenessState& ls = liveness_[idx];
  ++stats_.heartbeat_acks;
  ls.ack_since_tick = true;
  ls.misses = 0;
  if (metrics_ && metrics_->heartbeat_rtt_ms && msg.seq == ls.hb_seq) {
    metrics_->heartbeat_rtt_ms->observe(
        (sched_.now() - ls.hb_sent_at).to_millis());
  }
  if (ls.state == ApLiveness::kDead) {
    // Back from the dead: damp the flap with an exponential readmission
    // backoff so an oscillating AP cannot thrash the fan-out set.
    ls.state = ApLiveness::kRecovering;
    ls.state_since = sched_.now();
    if (ls.backoff == Time::zero()) ls.backoff = config_.readmission_backoff;
    ls.readmit_at = sched_.now() + ls.backoff;
    ls.backoff = std::min(ls.backoff * 2, config_.readmission_backoff_max);
  } else if (ls.state == ApLiveness::kSuspect) {
    ls.state = ApLiveness::kAlive;
    ls.state_since = sched_.now();
  }
}

void Controller::mark_dead(net::ApId ap) {
  const auto idx = static_cast<std::size_t>(net::index_of(ap));
  LivenessState& ls = liveness_[idx];
  ls.state = ApLiveness::kDead;
  ls.state_since = sched_.now();
  ap_evicted_[idx] = true;
  ++stats_.aps_marked_dead;
  if (metrics_ && metrics_->ap_marked_dead) metrics_->ap_marked_dead->inc();
  // Any client whose stream touches the dead AP — serving through it, or
  // mid-switch into or out of it — is failed over immediately rather than
  // waiting out retransmissions toward a corpse.
  const auto touch = [&](net::ClientId client, ClientState& cs) {
    const bool serving_dead = cs.serving && *cs.serving == ap;
    const bool pending_dead =
        cs.switch_pending &&
        (cs.pending_target == ap || cs.pending_from == ap);
    if (serving_dead || pending_dead) {
      // Remember the orphan: if the AP was a zombie (radio up, backhaul
      // down) it still believes it serves this client and must be quenched
      // once it is readmitted.
      ls.orphaned.push_back(client);
      force_failover(client);
    }
  };
  if (spatial_ != nullptr && !shard_clients_.empty() &&
      static_cast<int>(idx) < spatial_->num_aps()) {
    // Only clients anchored near the AP can be serving through it or
    // switching to it: serving requires CSI, CSI requires sense-range
    // proximity, and the anchor trails the client by at most the neighbor
    // radius — so 2x the radius around the AP covers every candidate.
    const double x = spatial_->ap_x(static_cast<int>(idx));
    const int s0 = spatial_->segment_of(x - 2.0 * spatial_radius_m_);
    const int s1 = spatial_->segment_of(x + 2.0 * spatial_radius_m_);
    for (int s = s0; s <= s1; ++s) {
      // Copy: force_failover never edits shards, but stay robust to
      // future hooks mutating client state mid-scan.
      const std::vector<std::uint32_t> members =
          shard_clients_[static_cast<std::size_t>(s)];
      for (std::uint32_t ci : members) {
        ClientState& cs = clients_[ci];
        if (cs.registered) touch(static_cast<net::ClientId>(ci), cs);
      }
    }
  } else {
    for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
      if (clients_[ci].registered) {
        touch(static_cast<net::ClientId>(ci), clients_[ci]);
      }
    }
  }
}

void Controller::force_failover(net::ClientId client) {
  ClientState& cs = *state(client);
  cs.ack_timer->cancel();
  cs.switch_pending = false;
  cs.pending_forced = false;
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
  cs.switch_pending = true;
  cs.pending_forced = true;
  cs.pending_target = *target;
  cs.pending_from = cs.serving.value_or(*target);
  cs.pending_since = sched_.now();
  cs.pending_first_index =
      static_cast<std::uint16_t>((cs.next_index - replay) & 0x0fff);
  ++stats_.switches_initiated;
  ++stats_.forced_failovers;
  if (metrics_) {
    metrics_->switches_initiated->inc();
    if (metrics_->forced_failovers) metrics_->forced_failovers->inc();
  }
  if (on_switch_initiated) {
    on_switch_initiated(client, cs.serving, *target, sched_.now());
  }
  backhaul_.send(self_node(), NodeId::ap(*target),
                 net::StartMsg{client, *target, cs.pending_first_index,
                               cs.epoch});
  cs.ack_timer->start(config_.ack_timeout);
}

void Controller::readmit(net::ApId ap) {
  const auto idx = static_cast<std::size_t>(net::index_of(ap));
  LivenessState& ls = liveness_[idx];
  ls.state = ApLiveness::kAlive;
  ls.state_since = sched_.now();
  ap_evicted_[idx] = false;
  ++stats_.aps_readmitted;
  if (metrics_ && metrics_->ap_readmitted) metrics_->ap_readmitted->inc();
  for (net::ClientId client : ls.orphaned) quench_orphan(ap, client);
  ls.orphaned.clear();
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

std::vector<Controller::ClientDebug> Controller::client_debug() const {
  // The slab is already ordered by client index.
  std::vector<ClientDebug> out;
  out.reserve(clients_.size());
  for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
    const ClientState& cs = clients_[ci];
    if (!cs.registered) continue;
    ClientDebug d;
    d.client = static_cast<net::ClientId>(ci);
    d.next_index = cs.next_index;
    d.downlink_sent = cs.downlink_sent;
    d.serving = cs.serving;
    d.switch_pending = cs.switch_pending;
    d.pending_forced = cs.pending_forced;
    d.pending_target = cs.pending_target;
    d.pending_from = cs.pending_from;
    d.pending_since = cs.pending_since;
    d.epoch = cs.epoch;
    d.pending_first_index = cs.pending_first_index;
    d.last_switch_completed = cs.last_switch_completed;
    out.push_back(d);
  }
  return out;
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
