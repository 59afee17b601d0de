#include "baseline/router.h"

#include <algorithm>

namespace wgtt::baseline {

using net::BackhaulMessage;
using net::NodeId;

Router::Router(sim::Scheduler& sched, net::Backhaul& backhaul,
               net::PacketPool& payload_pool)
    : sched_(sched), backhaul_(backhaul), payload_pool_(payload_pool) {
  backhaul_.attach(NodeId::controller(),
                   [this](NodeId from, BackhaulMessage msg) {
                     handle_backhaul(from, std::move(msg));
                   });
}

void Router::add_ap(net::ApId ap) {
  if (std::find(aps_.begin(), aps_.end(), ap) == aps_.end()) aps_.push_back(ap);
}

void Router::add_client(net::ClientId /*client*/) {}

void Router::send_downlink(net::Packet packet) {
  ++stats_.downlink_packets;
  auto it = assoc_.find(packet.client);
  if (it == assoc_.end()) {
    ++stats_.downlink_dropped_unassociated;
    return;
  }
  const auto tunnel_bytes = static_cast<std::uint32_t>(packet.tunnel_bytes());
  net::PacketPool::Ref payload(payload_pool_,
                               payload_pool_.acquire(std::move(packet)));
  backhaul_.send(NodeId::controller(), NodeId::ap(it->second),
                 net::DownlinkData{0, std::move(payload), tunnel_bytes});
}

void Router::handle_backhaul(NodeId /*from*/, BackhaulMessage msg) {
  std::visit(
      [this](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, net::UplinkData>) {
          ++stats_.uplink_packets;
          if (!dedup_accept(m.packet)) {
            ++stats_.uplink_duplicates_dropped;
            return;
          }
          if (on_uplink) on_uplink(m.packet);
        } else if constexpr (std::is_same_v<T, net::AssocSync>) {
          // An AP reports the client associated with it. Tell the previous
          // AP it lost the client (it stops pumping fresh packets; its
          // queued backlog keeps draining — the baseline's flaw).
          auto it = assoc_.find(m.client);
          const bool moved = it == assoc_.end() || it->second != m.from_ap;
          if (!moved) return;
          if (it != assoc_.end()) {
            backhaul_.send(NodeId::controller(), NodeId::ap(it->second),
                           net::AssocSync{m.client, m.from_ap});
          }
          assoc_[m.client] = m.from_ap;
          ++stats_.association_moves;
          if (on_association) on_association(m.client, m.from_ap, sched_.now());
        }
      },
      std::move(msg));
}

bool Router::dedup_accept(const net::Packet& p) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(net::index_of(p.client)) << 16) | p.ip_id;
  if (dedup_set_.contains(key)) return false;
  dedup_set_.insert(key);
  dedup_fifo_.push_back(key);
  if (dedup_fifo_.size() > (1u << 16)) {
    dedup_set_.erase(dedup_fifo_.front());
    dedup_fifo_.pop_front();
  }
  return true;
}

std::optional<net::ApId> Router::associated_ap(net::ClientId c) const {
  auto it = assoc_.find(c);
  return it == assoc_.end() ? std::nullopt : std::make_optional(it->second);
}

}  // namespace wgtt::baseline
