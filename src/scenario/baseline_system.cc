#include "scenario/baseline_system.h"

#include <limits>

namespace wgtt::scenario {

BaselineSystem::BaselineSystem(const BaselineSystemConfig& config)
    : config_(config),
      rng_(config.geometry.seed ^ 0xba5e11e0ULL),
      medium_(sched_, config.medium),
      backhaul_(sched_, config.backhaul, Rng{config.geometry.seed ^ 0xbacc}),
      geometry_(config.geometry) {
  router_ = std::make_unique<baseline::Router>(sched_, backhaul_);
  for (int i = 0; i < config_.geometry.num_aps; ++i) {
    const net::ApId ap_id{static_cast<std::uint32_t>(i)};
    auto ap = std::make_unique<baseline::BaselineAp>(
        ap_id, sched_, medium_, backhaul_, rng_.fork(), config_.ap,
        [this, i] { return geometry_.ap_position(i); });
    ap_idx_of_radio_[ap->mac().radio()] = i;
    ap->mac().set_channel_sampler(
        [this, i](mac::RadioId peer) {
          return geometry_.sample(ap_link(i, peer), sched_.now());
        },
        [this, i](mac::RadioId peer) {
          return geometry_.snr_ceiling_db(ap_link(i, peer), sched_.now());
        });
    ap->mac().set_interest_filter([this](mac::RadioId from) {
      return client_idx_of_radio_.contains(from);
    });
    ap->set_ap_directory([this](mac::RadioId r) -> std::optional<net::ApId> {
      auto it = ap_idx_of_radio_.find(r);
      if (it == ap_idx_of_radio_.end()) return std::nullopt;
      return net::ApId{static_cast<std::uint32_t>(it->second)};
    });
    ap->set_uplink_salvaging(config_.vifi_uplink_salvage);
    router_->add_ap(ap_id);
    aps_.push_back(std::move(ap));
  }
  // Same capture-effect oracle as the WGTT system (identical physics).
  medium_.set_power_oracle([this](mac::RadioId tx, channel::Vec2 at) -> double {
    if (geometry_.num_clients() == 0) return -90.0;
    if (auto it = ap_idx_of_radio_.find(tx); it != ap_idx_of_radio_.end()) {
      return geometry_.link(it->second, 0).large_scale_rx_dbm(at);
    }
    if (auto it = client_idx_of_radio_.find(tx); it != client_idx_of_radio_.end()) {
      const channel::Vec2 cpos =
          geometry_.client_position(it->second, sched_.now());
      int best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (int i = 0; i < geometry_.num_aps(); ++i) {
        const double d = channel::distance(at, geometry_.ap_position(i));
        if (d < best_d) {
          best_d = d;
          best = i;
        }
      }
      return geometry_.link(best, it->second).large_scale_rx_dbm(cpos);
    }
    return -90.0;
  });

  router_->on_uplink = [this](const net::Packet& p) {
    if (p.proto == net::Proto::kArp) return;
    if (!on_server_uplink) return;
    sched_.schedule_in(config_.server_latency,
                       [this, p] { on_server_uplink(p); });
  };
}

int BaselineSystem::add_client(const mobility::Trajectory* trajectory) {
  const int idx = geometry_.add_client(trajectory);
  const net::ClientId cid{static_cast<std::uint32_t>(idx)};
  auto client = std::make_unique<baseline::BaselineClient>(
      cid, sched_, medium_, rng_.fork(), config_.client, trajectory);
  client_idx_of_radio_[client->radio()] = idx;
  client->mac().set_channel_sampler(
      [this, idx](mac::RadioId peer) {
        return geometry_.sample(client_link(idx, peer), sched_.now());
      },
      [this, idx](mac::RadioId peer) {
        return geometry_.snr_ceiling_db(client_link(idx, peer), sched_.now());
      });
  client->mac().set_interest_filter([this](mac::RadioId from) {
    return ap_idx_of_radio_.contains(from);
  });
  router_->add_client(cid);
  clients_.push_back(std::move(client));
  return idx;
}

void BaselineSystem::start() {
  if (started_) return;
  started_ = true;
  // Enhanced item (3): client auth state is pre-shared with every AP.
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    const net::ClientId cid{static_cast<std::uint32_t>(c)};
    for (auto& ap : aps_) ap->learn_client(cid, clients_[c]->radio());
    clients_[c]->start();
  }
}

void BaselineSystem::server_send(net::Packet packet) {
  sched_.schedule_in(config_.server_latency, [this, p = std::move(packet)] {
    router_->send_downlink(p);
  });
}

int BaselineSystem::serving_ap(int client) const {
  const auto ap = router_->associated_ap(
      net::ClientId{static_cast<std::uint32_t>(client)});
  return ap ? static_cast<int>(net::index_of(*ap)) : -1;
}

std::optional<LinkIndex> BaselineSystem::ap_link(int ap,
                                                 mac::RadioId peer) const {
  auto it = client_idx_of_radio_.find(peer);
  if (it == client_idx_of_radio_.end()) return std::nullopt;
  return LinkIndex{ap, it->second};
}

std::optional<LinkIndex> BaselineSystem::client_link(int client,
                                                     mac::RadioId peer) const {
  auto it = ap_idx_of_radio_.find(peer);
  if (it == ap_idx_of_radio_.end()) return std::nullopt;
  return LinkIndex{it->second, client};
}

}  // namespace wgtt::scenario
