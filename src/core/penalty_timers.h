// Per-(client, target-domain) penalty timers damping handover ping-pong at a
// domain boundary (osmo-bsc's penalty_timers.h is the production exemplar:
// after a handover to a target, further attempts toward that target are
// barred until the timer runs out). Expiry is lazy — entries are checked
// against `now` on lookup and never erased — so arming and querying never
// touch the scheduler. The map holds at most one entry per (client, domain)
// pair that ever handed over.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/ids.h"
#include "util/units.h"

namespace wgtt::core {

class PenaltyTimers {
 public:
  /// Bar (client, domain) until `until`. Re-arming extends, never shortens.
  void arm(net::ClientId client, std::uint32_t domain, Time until) {
    Time& t = until_[key(client, domain)];
    if (until > t) t = until;
  }

  /// Is a handover of `client` toward `domain` currently barred?
  [[nodiscard]] bool barred(net::ClientId client, std::uint32_t domain,
                            Time now) const {
    const auto it = until_.find(key(client, domain));
    return it != until_.end() && now < it->second;
  }

 private:
  [[nodiscard]] static std::uint64_t key(net::ClientId client,
                                         std::uint32_t domain) {
    return (static_cast<std::uint64_t>(net::index_of(client)) << 32) | domain;
  }

  std::unordered_map<std::uint64_t, Time> until_;
};

}  // namespace wgtt::core
