#include "core/esnr_tracker.h"

namespace wgtt::core {

EsnrTracker::EsnrTracker(Time window) : window_(window) {}

EsnrTracker::Link* EsnrTracker::find_link(PerClient& pc, net::ApId ap) {
  for (Link& l : pc.links) {
    if (l.ap == ap) return &l;
  }
  return nullptr;
}

const EsnrTracker::Link* EsnrTracker::find_link(const PerClient& pc,
                                                net::ApId ap) const {
  for (const Link& l : pc.links) {
    if (l.ap == ap) return &l;
  }
  return nullptr;
}

int EsnrTracker::anchor_ap(net::ClientId client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? -1 : it->second.anchor;
}

void EsnrTracker::add(net::ClientId client, net::ApId ap, Time now,
                      double esnr_db) {
  PerClient& pc = clients_[client];
  Link* link = find_link(pc, ap);
  if (link == nullptr) {
    pc.links.emplace_back(ap, window_);
    link = &pc.links.back();
  }
  link->samples.add(now, esnr_db);
  link->last_heard = now;
  link->last_value = esnr_db;
  pc.anchor = static_cast<int>(net::index_of(ap));
  // Long-silent links are deliberately NOT erased: removing a link and later
  // re-hearing that AP would re-append it at the back of `links`, changing
  // the first-heard iteration order that best_ap tie-breaks and fresh_aps
  // output depend on — and with it every seeded run. Memory stays bounded
  // anyway: StreamingMedian evicts out-of-window samples on every query/add,
  // so a silent link costs only the empty Link slot, and the link count is
  // capped by the APs ever audible from the client's span.
}

std::optional<double> EsnrTracker::median(net::ClientId client, net::ApId ap,
                                          Time now) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return std::nullopt;
  Link* link = find_link(it->second, ap);
  if (link == nullptr) return std::nullopt;
  return link->samples.lower_median(now);
}

std::optional<net::ApId> EsnrTracker::best_ap(net::ClientId client, Time now,
                                              const std::vector<bool>* evicted) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return std::nullopt;
  std::optional<net::ApId> best;
  double best_median = 0.0;
  for (Link& l : it->second.links) {
    if (evicted != nullptr) {
      const auto idx = static_cast<std::size_t>(net::index_of(l.ap));
      if (idx < evicted->size() && (*evicted)[idx]) continue;
    }
    const auto m = l.samples.lower_median(now);
    if (!m) continue;
    if (!best || *m > best_median) {
      best = l.ap;
      best_median = *m;
    }
  }
  return best;
}

std::optional<Time> EsnrTracker::last_heard(net::ClientId client,
                                            net::ApId ap) const {
  auto it = clients_.find(client);
  if (it == clients_.end()) return std::nullopt;
  const Link* link = find_link(it->second, ap);
  if (link == nullptr) return std::nullopt;
  return link->last_heard;
}

std::optional<double> EsnrTracker::last_value(net::ClientId client,
                                              net::ApId ap) const {
  auto it = clients_.find(client);
  if (it == clients_.end()) return std::nullopt;
  const Link* link = find_link(it->second, ap);
  if (link == nullptr) return std::nullopt;
  return link->last_value;
}

std::vector<net::ApId> EsnrTracker::fresh_aps(net::ClientId client, Time now,
                                              Time freshness) {
  std::vector<net::ApId> out;
  auto it = clients_.find(client);
  if (it == clients_.end()) return out;
  for (const Link& l : it->second.links) {
    if (now - l.last_heard <= freshness) out.push_back(l.ap);
  }
  return out;
}

}  // namespace wgtt::core
