#include "baseline/baseline_ap.h"

#include "phy/rate_control.h"

namespace wgtt::baseline {

using net::BackhaulMessage;
using net::NodeId;

BaselineAp::BaselineAp(net::ApId id, sim::Scheduler& sched,
                       mac::Medium& medium, net::Backhaul& backhaul, Rng rng,
                       Config config, mac::Medium::PositionFn position)
    : id_(id),
      sched_(sched),
      backhaul_(backhaul),
      rng_(rng),
      config_(config),
      mac_(sched, medium, rng_.fork(), config_.mac) {
  mac_.attach(std::move(position));
  mac_.enable_beacons(config_.beacon_interval);
  mac_.on_deliver = [this](mac::RadioId from, const net::Packet& pkt) {
    auto it = client_of_radio_.find(from);
    if (it == client_of_radio_.end()) return;
    backhaul_.send(NodeId::ap(id_), NodeId::controller(),
                   net::UplinkData{id_, pkt});
  };
  mac_.on_mgmt = [this](mac::RadioId from, mac::MgmtFrame f) {
    handle_mgmt(from, f);
  };
  mac_.on_heard = [this](const mac::Frame& f, bool,
                         const channel::CsiMeasurement&) { on_heard(f); };
  mac_.on_mpdu_acked = [this](mac::RadioId peer, std::uint16_t,
                              const net::Packet&) {
    auto it = client_of_radio_.find(peer);
    if (it == client_of_radio_.end()) return;
    auto cs = clients_.find(it->second);
    if (cs != clients_.end()) pump(cs->second);
  };
  backhaul_.attach(NodeId::ap(id_), [this](NodeId from, BackhaulMessage msg) {
    handle_backhaul(from, std::move(msg));
  });
  pump_timer_ = std::make_unique<sim::Timer>(sched_, [this] {
    pump_all();
    pump_timer_->start(config_.pump_period);
  });
  pump_timer_->start(config_.pump_period);
}

void BaselineAp::learn_client(net::ClientId client, mac::RadioId radio) {
  if (clients_.contains(client)) return;
  ClientState cs;
  cs.radio = radio;
  clients_.emplace(client, std::move(cs));
  client_of_radio_[radio] = client;
}

bool BaselineAp::associated(net::ClientId client) const {
  auto it = clients_.find(client);
  return it != clients_.end() && it->second.associated;
}

std::size_t BaselineAp::backlog(net::ClientId client) const {
  auto it = clients_.find(client);
  if (it == clients_.end()) return 0;
  return it->second.socket_queue.size() + mac_.queue_depth(it->second.radio);
}

void BaselineAp::handle_backhaul(NodeId /*from*/, BackhaulMessage msg) {
  std::visit(
      [this](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, net::DownlinkData>) {
          auto it = clients_.find(m.payload->client);
          if (it == clients_.end()) return;
          ++stats_.downlink_received;
          ClientState& cs = it->second;
          if (cs.socket_queue.size() >= config_.socket_queue_capacity) {
            ++stats_.socket_drops;
            return;
          }
          cs.socket_queue.push_back(*m.payload);
          if (cs.associated) pump(cs);
        } else if constexpr (std::is_same_v<T, net::AssocSync>) {
          // Another AP took this client (or a relayed assoc request).
          auto it = clients_.find(m.client);
          if (it == clients_.end()) return;
          if (m.from_ap == id_) {
            // Relayed association request for us: accept it.
            accept_association(m.client);
          } else if (it->second.associated) {
            // Client moved elsewhere; stop treating it as ours. The backlog
            // already in the NIC queue keeps draining into the old link —
            // exactly the behaviour WGTT's switching protocol eliminates.
            it->second.associated = false;
          }
        }
      },
      std::move(msg));
}

void BaselineAp::accept_association(net::ClientId client) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  ClientState& cs = it->second;
  if (!mac_.has_peer(cs.radio)) {
    mac_.add_peer(cs.radio);
    mac_.set_rate_controller(
        cs.radio, std::make_unique<phy::MinstrelLite>(
                      phy::MinstrelLite::Config{}, rng_.fork()));
  }
  if (!cs.associated) {
    cs.associated = true;
    ++stats_.associations;
  }
  // Reply over the air and tell the distribution router.
  mac_.send_mgmt(cs.radio, mac::MgmtFrame{mac::MgmtFrame::Kind::kAssocResp});
  backhaul_.send(NodeId::ap(id_), NodeId::controller(),
                 net::AssocSync{client, id_});
  pump(cs);
}

void BaselineAp::handle_mgmt(mac::RadioId from, mac::MgmtFrame frame) {
  if (frame.kind != mac::MgmtFrame::Kind::kAssocReq) return;
  auto it = client_of_radio_.find(from);
  if (it == client_of_radio_.end()) return;
  accept_association(it->second);
}

void BaselineAp::set_ap_directory(
    std::function<std::optional<net::ApId>(mac::RadioId)> ap_of_radio) {
  ap_of_radio_ = std::move(ap_of_radio);
}

void BaselineAp::on_heard(const mac::Frame& frame) {
  // ViFi-style salvage: overheard uplink data for another AP's client is
  // tunnelled to the router, which de-duplicates.
  if (salvage_uplink_ && frame.to != mac_.radio()) {
    if (const auto* df = std::get_if<mac::DataFrame>(&frame.body)) {
      auto it = client_of_radio_.find(frame.from);
      if (it != client_of_radio_.end()) {
        for (const auto& m : df->mpdus) {
          if (!m.packet.downlink) {
            backhaul_.send(net::NodeId::ap(id_), net::NodeId::controller(),
                           net::UplinkData{id_, m.packet});
          }
        }
      }
    }
  }
  // Enhanced item (3): relay an overheard association request to its target
  // AP through the backhaul. An AssocSync whose from_ap equals the receiving
  // AP's own id is interpreted there as "this client is asking for you".
  const auto* mf = std::get_if<mac::MgmtFrame>(&frame.body);
  if (mf == nullptr || mf->kind != mac::MgmtFrame::Kind::kAssocReq) return;
  if (frame.to == mac_.radio()) return;  // our own; handled via on_mgmt
  auto it = client_of_radio_.find(frame.from);
  if (it == client_of_radio_.end() || ap_of_radio_ == nullptr) return;
  const std::optional<net::ApId> target = ap_of_radio_(frame.to);
  if (!target || *target == id_) return;
  ++stats_.relayed_assoc_reqs;
  backhaul_.send(NodeId::ap(id_), NodeId::ap(*target),
                 net::AssocSync{it->second, *target});
}

void BaselineAp::pump(ClientState& cs) {
  if (!cs.associated) return;
  while (!cs.socket_queue.empty() &&
         mac_.queue_depth(cs.radio) < config_.mac.hw_queue_capacity) {
    mac_.enqueue(cs.radio, std::move(cs.socket_queue.front()));
    cs.socket_queue.pop_front();
  }
}

void BaselineAp::pump_all() {
  for (auto& [id, cs] : clients_) {
    if (cs.associated) pump(cs);
  }
}

}  // namespace wgtt::baseline
