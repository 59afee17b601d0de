#include "ap/wgtt_ap.h"

#include <algorithm>

#include "mac/block_ack.h"
#include "phy/rate_control.h"

namespace wgtt::ap {

using net::BackhaulMessage;
using net::NodeId;

WgttAp::WgttAp(net::ApId id, sim::Scheduler& sched, mac::Medium& medium,
               net::Backhaul& backhaul, net::PacketPool& payload_pool, Rng rng,
               Config config, mac::Medium::PositionFn position)
    : id_(id),
      sched_(sched),
      backhaul_(backhaul),
      rng_(rng),
      config_([&] {
        Config c = config;
        c.mac.accept_bssid = true;  // thin-AP shared BSSID
        return c;
      }()),
      mac_(sched, medium, rng_.fork(), config_.mac),
      payload_pool_(payload_pool) {
  mac_.attach(std::move(position));
  mac_.on_deliver = [this](mac::RadioId from, const net::Packet& pkt) {
    // Uplink data decoded by this AP: tunnel to the controller (§3.2.2).
    auto it = client_of_radio_.find(from);
    if (it == client_of_radio_.end()) return;
    ++stats_.uplink_forwarded;
    if (metrics_) metrics_->uplink_forwarded->inc();
    backhaul_.send(NodeId::ap(id_), controller_node_,
                   net::UplinkData{id_, pkt});
  };
  mac_.on_heard = [this](const mac::Frame& f, bool,
                         const channel::CsiMeasurement& csi) {
    on_heard(f, csi);
  };
  mac_.on_mpdu_acked = [this](mac::RadioId peer, std::uint16_t, const net::Packet&) {
    auto it = client_of_radio_.find(peer);
    if (it == client_of_radio_.end()) return;
    ClientState* cs = client_state(it->second);
    if (cs != nullptr) pump(*cs);
  };
  backhaul_.attach(NodeId::ap(id_), [this](NodeId from, BackhaulMessage msg) {
    handle_backhaul(from, std::move(msg));
  });
  pump_timer_ = std::make_unique<sim::Timer>(
      sched_,
      [this] {
        pump_all();
        pump_timer_->start(config_.pump_period);
      },
      sim::EventCategory::kMacTx);
  pump_timer_->start(config_.pump_period);
}

void WgttAp::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_.reset();
    return;
  }
  Metrics m;
  m.downlink_received = &registry->counter("ap.downlink_received");
  m.cyclic_overwrites = &registry->counter("ap.cyclic_overwrites");
  m.stale_dropped = &registry->counter("ap.stale_dropped");
  m.pump_enqueued = &registry->counter("ap.pump_enqueued");
  m.stops_handled = &registry->counter("ap.stops_handled");
  m.starts_handled = &registry->counter("ap.starts_handled");
  m.stop_duplicates = &registry->counter("ap.stop_duplicates");
  m.start_duplicates = &registry->counter("ap.start_duplicates");
  m.stale_control_ignored = &registry->counter("ap.stale_control_ignored");
  m.ba_forwarded = &registry->counter("ap.ba_forwarded");
  m.ba_forward_received = &registry->counter("ap.ba_forward_received");
  m.ba_forward_duplicate = &registry->counter("ap.ba_forward_duplicate");
  m.csi_reports_sent = &registry->counter("ap.csi_reports_sent");
  m.uplink_forwarded = &registry->counter("ap.uplink_forwarded");
  m.cyclic_occupancy =
      &registry->histogram("ap.cyclic_occupancy", 0.0, 2048.0, 128);
  m.stop_to_start.set_sink(
      &registry->histogram("ap.stop_to_start_ms", 0.0, 40.0, 160));
  m.start_to_ack.set_sink(
      &registry->histogram("ap.start_to_ack_ms", 0.0, 40.0, 160));
  metrics_ = std::move(m);
}

void WgttAp::set_ap_directory(
    std::function<std::optional<net::ApId>(mac::RadioId)> ap_of_radio) {
  ap_of_radio_ = std::move(ap_of_radio);
}

void WgttAp::register_client(net::ClientId client, mac::RadioId radio) {
  if (clients_.contains(client)) return;
  // Fan-out handles must land in the pool that owns them.
  clients_.try_emplace(client, radio, &payload_pool_);
  client_of_radio_[radio] = client;
  mac_.add_peer(radio);
  // WGTT APs have per-frame CSI; drive the rate from it (§4.2 keeps the
  // default controller, but the default Atheros controller converges to the
  // same choice — see bench_abl_selection_metric for the comparison).
  mac_.set_rate_controller(radio, std::make_unique<phy::EsnrRateSelector>());
}

bool WgttAp::serving(net::ClientId client) const {
  auto it = clients_.find(client);
  return it != clients_.end() && it->second.serving;
}

std::size_t WgttAp::cyclic_backlog(net::ClientId client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.queue.occupancy();
}

void WgttAp::queue_totals(std::size_t& cyclic_backlog_total,
                          std::size_t& hw_queue_total) const {
  for (const auto& [client, cs] : clients_) {
    cyclic_backlog_total += cs.queue.occupancy();
    hw_queue_total += mac_.queue_depth(cs.radio);
  }
}

void WgttAp::set_serving(ClientState& cs, net::ClientId client, bool serving) {
  if (cs.serving == serving) return;
  cs.serving = serving;
  const auto pos = std::lower_bound(
      serving_clients_.begin(), serving_clients_.end(), client,
      [](net::ClientId a, net::ClientId b) {
        return net::index_of(a) < net::index_of(b);
      });
  if (serving) {
    serving_clients_.insert(pos, client);
  } else if (pos != serving_clients_.end() && *pos == client) {
    serving_clients_.erase(pos);
  }
}

WgttAp::ClientState* WgttAp::client_state(net::ClientId client) {
  auto it = clients_.find(client);
  return it == clients_.end() ? nullptr : &it->second;
}

Time WgttAp::draw_delay(Time mean, Time std) {
  const double ns = rng_.normal(static_cast<double>(mean.count_ns()),
                                static_cast<double>(std.count_ns()));
  return Time::ns(std::max<std::int64_t>(static_cast<std::int64_t>(ns),
                                         Time::micros(100).count_ns()));
}

void WgttAp::handle_backhaul(NodeId /*from*/, BackhaulMessage msg) {
  // Belt and braces: the scenario takes a crashed AP's backhaul link down,
  // so nothing should arrive here — but a dead process handles nothing.
  // A payload reaching a corpse still owns a pool reference, which must be
  // dropped or the slot leaks for the rest of the run.
  if (crashed_) {
    if (const auto* d = std::get_if<net::DownlinkData>(&msg)) {
      payload_pool_.drop(d->handle);
    }
    return;
  }
  std::visit(
      [this](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, net::DownlinkData>) {
          handle_downlink(std::move(m));
        } else if constexpr (std::is_same_v<T, net::StopMsg>) {
          handle_stop(m);
        } else if constexpr (std::is_same_v<T, net::StartMsg>) {
          handle_start(m);
        } else if constexpr (std::is_same_v<T, net::BlockAckForward>) {
          handle_ba_forward(m);
        } else if constexpr (std::is_same_v<T, net::Heartbeat>) {
          // Answered inline, no Click crossing: the liveness probe runs in
          // the kernel path and the RTT sample measures the backhaul alone.
          ++stats_.heartbeats_answered;
          backhaul_.send(NodeId::ap(id_), controller_node_,
                         net::HeartbeatAck{id_, m.seq});
        } else if constexpr (std::is_same_v<T, net::AdoptAp>) {
          // A (new) controller domain took ownership of this AP. Re-point
          // the report path; idempotent on duplicates.
          const NodeId node = NodeId::controller(m.new_domain);
          if (!(node == controller_node_)) {
            controller_node_ = node;
            ++stats_.adoptions;
          }
        }
        // AssocSync is handled by the scenario wiring (register_client);
        // UplinkData / CsiReport / SwitchAck never address an AP.
      },
      std::move(msg));
}

void WgttAp::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++stats_.crashes;
  delivered_at_crash_ = mac_.total_stats().mpdus_delivered;
  for (auto& [client, cs] : clients_) {
    cs.queue.clear();
    set_serving(cs, client, false);
    cs.next_index = 0;
    cs.ctl = ControlRecord{};
    cs.seen_ba_uids.clear();
    mac_.flush_peer(cs.radio);
  }
  pump_timer_->cancel();
}

void WgttAp::restart() {
  if (!crashed_) return;
  crashed_ = false;
  ++stats_.restarts;
  pump_timer_->start(config_.pump_period);
}

void WgttAp::handle_downlink(net::DownlinkData&& msg) {
  // The message carries no Packet body; the client is read through the
  // shared pool (one indexed load, the handle stays shared).
  const net::ClientId client = payload_pool_.get(msg.handle)->client;
  ClientState* cs = client_state(client);
  if (cs == nullptr) {  // not yet associated here
    payload_pool_.drop(msg.handle);
    return;
  }
  ++stats_.downlink_received;
  const std::uint64_t overwrites_before = cs->queue.overwrites();
  cs->queue.put_handle(msg.index, msg.handle);  // adopts the reference
  if (metrics_) {
    metrics_->downlink_received->inc();
    metrics_->cyclic_overwrites->inc(cs->queue.overwrites() -
                                     overwrites_before);
    metrics_->cyclic_occupancy->observe(
        static_cast<double>(cs->queue.occupancy()));
  }
  if (cs->serving) pump(*cs);
}

void WgttAp::handle_stop(const net::StopMsg& msg) {
  ClientState* cs = client_state(msg.client);
  if (cs == nullptr) return;
  ControlRecord& ctl = cs->ctl;
  if (ctl.have_epoch && msg.epoch < ctl.epoch) {
    // A leftover of an already-superseded switch; acting on it would stop
    // a drain the controller believes is live.
    ++stats_.stale_control_ignored;
    if (metrics_) metrics_->stale_control_ignored->inc();
    return;
  }
  if (ctl.have_epoch && msg.epoch == ctl.epoch && ctl.op == CtlOp::kStop) {
    // Retransmit of a stop already seen (the start or the ack got lost
    // downstream). Replay the RECORDED first-unsent index rather than
    // re-querying: the live next_index belongs to whichever AP is draining
    // now, and a fresh query would hand the new AP a rewound (or advanced)
    // pointer. No span re-begin either — the switch started once.
    // An equal-epoch stop over a START record falls through instead: a
    // single controller never stops its serving AP within the same epoch,
    // but an inter-domain quench (the source stopping its drain under the
    // target's minted epoch, or an ownership yield) legitimately does.
    ++stats_.stop_duplicates;
    if (metrics_) metrics_->stop_duplicates->inc();
    if (ctl.op == CtlOp::kStop && ctl.stop_first_unsent) {
      const Time proc = draw_delay(config_.control_processing_mean,
                                   config_.control_processing_std);
      sched_.schedule_in(proc, [this, client = msg.client, epoch = msg.epoch] {
        ClientState* s = client_state(client);
        if (s == nullptr) return;
        const ControlRecord& c = s->ctl;
        if (!c.have_epoch || c.epoch != epoch || c.op != CtlOp::kStop ||
            !c.stop_first_unsent) {
          return;  // superseded while the replay was in flight
        }
        backhaul_.send(net::NodeId::ap(id_), net::NodeId::ap(c.stop_new_ap),
                       net::StartMsg{client, id_, *c.stop_first_unsent, epoch});
      }, sim::EventCategory::kControl);
    }
    // else: the kernel query is still in flight; its answer covers this
    // duplicate too.
    return;
  }
  ctl.have_epoch = true;
  ctl.epoch = msg.epoch;
  ctl.op = CtlOp::kStop;
  ctl.stop_new_ap = msg.new_ap;
  ctl.stop_first_unsent.reset();
  ctl.start_acked = false;
  ++stats_.stops_handled;
  if (metrics_) {
    metrics_->stops_handled->inc();
    metrics_->stop_to_start.begin(net::index_of(msg.client), sched_.now());
  }
  // Control packets are prioritized but still cross the Click userspace.
  const Time proc = draw_delay(config_.control_processing_mean,
                               config_.control_processing_std);
  sched_.schedule_in(proc, [this, client = msg.client, new_ap = msg.new_ap,
                            epoch = msg.epoch] {
    ClientState* s = client_state(client);
    if (s == nullptr) return;
    if (!s->ctl.have_epoch || s->ctl.epoch != epoch ||
        s->ctl.op != CtlOp::kStop) {
      return;  // a newer epoch took over while we crossed userspace
    }
    // Cease sending: stop pumping. MPDUs already in the NIC hardware queue
    // keep draining over the (deteriorating) old link — the paper measures
    // ~6 ms of residual transmissions and accepts them.
    set_serving(*s, client, false);
    // Query the kernel for the first unsent index (ioctl round trip), then
    // hand off to the new AP.
    const Time q = draw_delay(config_.ioctl_query_mean, config_.ioctl_query_std);
    sched_.schedule_in(q, [this, client, new_ap, epoch] {
      ClientState* s2 = client_state(client);
      if (s2 == nullptr) return;
      if (!s2->ctl.have_epoch || s2->ctl.epoch != epoch ||
          s2->ctl.op != CtlOp::kStop) {
        return;
      }
      s2->ctl.stop_first_unsent = s2->next_index;
      if (metrics_) {
        metrics_->stop_to_start.end(net::index_of(client), sched_.now());
      }
      backhaul_.send(net::NodeId::ap(id_), net::NodeId::ap(new_ap),
                     net::StartMsg{client, id_, s2->next_index, epoch});
    }, sim::EventCategory::kControl);
  }, sim::EventCategory::kControl);
}

void WgttAp::handle_start(const net::StartMsg& msg) {
  ClientState* cs = client_state(msg.client);
  if (cs == nullptr) return;
  ControlRecord& ctl = cs->ctl;
  if (ctl.have_epoch && msg.epoch < ctl.epoch) {
    // e.g. a delayed duplicate arriving after this AP was already stopped
    // for a later switch: becoming "serving" again would duplicate the
    // client's serving AP.
    ++stats_.stale_control_ignored;
    if (metrics_) metrics_->stale_control_ignored->inc();
    return;
  }
  if (ctl.have_epoch && msg.epoch == ctl.epoch) {
    // Retransmit chain reached us again (our ack was lost). Replay the ack
    // only: re-applying the stale k would rewind next_index and
    // re-transmit everything already delivered since.
    ++stats_.start_duplicates;
    if (metrics_) metrics_->start_duplicates->inc();
    if (ctl.op == CtlOp::kStart && ctl.start_acked) {
      const Time proc = draw_delay(config_.control_processing_mean,
                                   config_.control_processing_std);
      sched_.schedule_in(proc, [this, client = msg.client, epoch = msg.epoch] {
        if (client_state(client) == nullptr) return;
        backhaul_.send(net::NodeId::ap(id_), controller_node_,
                       net::SwitchAck{client, id_, epoch});
      }, sim::EventCategory::kControl);
    }
    // else: the original start is still being processed; it will ack.
    return;
  }
  ctl.have_epoch = true;
  ctl.epoch = msg.epoch;
  ctl.op = CtlOp::kStart;
  ctl.start_acked = false;
  ctl.stop_first_unsent.reset();
  ++stats_.starts_handled;
  if (metrics_) {
    metrics_->starts_handled->inc();
    metrics_->start_to_ack.begin(net::index_of(msg.client), sched_.now());
  }
  const Time proc = draw_delay(config_.start_processing_mean,
                               config_.start_processing_std);
  sched_.schedule_in(proc, [this, client = msg.client,
                            k = msg.first_unsent_index, epoch = msg.epoch] {
    ClientState* s = client_state(client);
    if (s == nullptr) return;
    if (!s->ctl.have_epoch || s->ctl.epoch != epoch ||
        s->ctl.op != CtlOp::kStart) {
      return;  // superseded while we crossed userspace
    }
    std::uint16_t applied;
    if (config_.start_from_newest && s->queue.newest()) {
      // Queue-management ablation: drop the handed-off backlog on the floor
      // and continue from whatever arrives next.
      applied = (*s->queue.newest() + 1) & (CyclicQueue::kIndexSpace - 1);
    } else {
      applied = k & (CyclicQueue::kIndexSpace - 1);
    }
    if (s->serving &&
        mac::seq_sub(applied, s->next_index) > CyclicQueue::kIndexSpace / 2) {
      // A NEW-epoch start pointing behind an already-serving drain pointer.
      // Reachable on forced failover: the controller bootstraps us from its
      // rewound watermark while the stop meant for us died with the old
      // epoch's backhaul fault, so we never stopped. Everything before our
      // own pointer is already delivered — resume from it, never rewind.
      // (A DUPLICATE start rewinding the pointer remains the bug the epoch
      // guard above makes unreachable — it never gets here. With the clamp,
      // index_regressions counts rewinds actually applied, i.e. stays zero,
      // which the invariant checker asserts.)
      ++stats_.starts_clamped_forward;
      applied = s->next_index;
    }
    if (s->serving &&
        mac::seq_sub(applied, s->next_index) > CyclicQueue::kIndexSpace / 2) {
      ++stats_.index_regressions;
    }
    set_serving(*s, client, true);
    s->next_index = applied;
    s->ctl.start_acked = true;
    if (metrics_) {
      metrics_->start_to_ack.end(net::index_of(client), sched_.now());
    }
    backhaul_.send(net::NodeId::ap(id_), controller_node_,
                   net::SwitchAck{client, id_, epoch});
    pump(*s);
  }, sim::EventCategory::kControl);
}

bool WgttAp::ba_seen(ClientState& cs, std::uint64_t uid) {
  for (std::size_t i = 0; i < cs.seen_ba_uids.size(); ++i) {
    if (cs.seen_ba_uids.at(i) == uid) return true;
  }
  cs.seen_ba_uids.push(uid);  // drop-oldest once 64 are remembered
  return false;
}

void WgttAp::handle_ba_forward(const net::BlockAckForward& msg) {
  ClientState* cs = client_state(msg.client);
  if (cs == nullptr) return;
  ++stats_.ba_forward_received;
  if (metrics_) metrics_->ba_forward_received->inc();
  if (ba_seen(*cs, msg.ba_uid)) {
    // Already merged (own NIC or another AP's forward): drop (§3.2.1).
    ++stats_.ba_forward_duplicate;
    if (metrics_) metrics_->ba_forward_duplicate->inc();
    return;
  }
  mac::BaBitmap ba;
  ba.start_seq = msg.start_seq;
  ba.bits = msg.bitmap;
  mac_.inject_block_ack(cs->radio, ba);
}

void WgttAp::on_heard(const mac::Frame& frame,
                      const channel::CsiMeasurement& csi) {
  auto it = client_of_radio_.find(frame.from);
  if (it == client_of_radio_.end()) return;
  const net::ClientId client = it->second;

  // CSI extraction on every decoded client frame (§3.1.1).
  if (csi_reporting_) {
    ++stats_.csi_reports_sent;
    if (metrics_) metrics_->csi_reports_sent->inc();
    backhaul_.send(net::NodeId::ap(id_), controller_node_,
                   net::CsiReport{id_, client, csi});
  }

  // Monitor-mode BA forwarding (§3.2.1): a client BA addressed to another
  // AP is forwarded there; the serving AP has no monitor interface for its
  // own client (it decodes its BAs directly).
  if (const auto* ba = std::get_if<mac::BlockAckFrame>(&frame.body)) {
    ClientState* cs = client_state(client);
    if (cs == nullptr) return;
    if (frame.to == mac_.radio()) {
      // Our own BA: remember its identity so a forwarded copy is dropped.
      (void)ba_seen(*cs, frame.tx_uid);
      return;
    }
    if (!ba_forwarding_ || cs->serving || ap_of_radio_ == nullptr) return;
    const std::optional<net::ApId> dest = ap_of_radio_(frame.to);
    if (!dest || *dest == id_) return;
    ++stats_.ba_forwarded;
    if (metrics_) metrics_->ba_forwarded->inc();
    backhaul_.send(
        net::NodeId::ap(id_), net::NodeId::ap(*dest),
        net::BlockAckForward{client, id_, ba->start_seq, ba->bitmap, frame.tx_uid});
  }
}

void WgttAp::pump(ClientState& cs) {
  if (crashed_ || !cs.serving) return;
  while (mac_.queue_depth(cs.radio) < config_.mac.hw_queue_capacity) {
    if (const net::Packet* head = cs.queue.peek(cs.next_index)) {
      if (sched_.now() - head->created > config_.cyclic_staleness) {
        // A slot written a lap (or a long lull) ago: useless and, worse,
        // possibly already delivered by another AP. Discard — drop() just
        // decrements the pool reference, no Packet is materialized.
        cs.queue.drop(cs.next_index);
        ++stats_.stale_dropped;
        if (metrics_) metrics_->stale_dropped->inc();
      } else {
        mac_.enqueue(cs.radio, *cs.queue.take(cs.next_index), cs.next_index);
        if (metrics_) metrics_->pump_enqueued->inc();
      }
      cs.next_index = (cs.next_index + 1) & (CyclicQueue::kIndexSpace - 1);
      continue;
    }
    // Gap handling: if newer packets exist (this AP joined the fan-out set
    // after index k was assigned), skip forward to the next occupied slot.
    const auto newest = cs.queue.newest();
    if (!newest || cs.queue.occupancy() == 0) break;
    const std::uint16_t end = (*newest + 1) & (CyclicQueue::kIndexSpace - 1);
    std::uint16_t probe = cs.next_index;
    bool found = false;
    while (probe != end) {
      if (cs.queue.has(probe)) {
        found = true;
        break;
      }
      probe = (probe + 1) & (CyclicQueue::kIndexSpace - 1);
    }
    if (!found) break;
    cs.next_index = probe;
  }
}

void WgttAp::pump_all() {
  // Only serving queues ever drain; iterating the incrementally-maintained
  // list keeps the 1 ms tick O(served clients), not O(registered clients).
  for (const net::ClientId client : serving_clients_) {
    ClientState* cs = client_state(client);
    if (cs != nullptr) pump(*cs);
  }
}

}  // namespace wgtt::ap
