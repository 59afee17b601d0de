// Sliding-window ESNR state per (client, AP) link and the paper's AP
// selection rule (§3.1.1):
//
//   E(a) = sorted ESNR readings from AP a in the last W milliseconds
//   a*   = argmax_a  e_{floor(L_a / 2)}(a)      (the window median)
//
// W trades agility against noise: the paper's Figure 21 sweep finds 10 ms
// optimal at all vehicle speeds, which bench_fig21_window_size reproduces.
//
// The window median itself is maintained incrementally by a
// core::StreamingMedian per link (a sorted window: a binary search and a
// short shift per CSI sample) instead of re-sorting the window on every
// report; the two are bit-identical, which core_test asserts.
//
// Links are stored contiguously per client in first-heard order, which
// fixes the argmax tie-break and the fan-out order. The per-client scans
// walk every link: only APs that heard the client ever get one, so the list
// is bounded by the APs audible along the client's path. The anchor AP (the
// last one to report CSI) locates the client for the controller's bounded
// fan-out fallback.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/streaming_median.h"
#include "net/ids.h"
#include "util/units.h"

namespace wgtt::core {

class EsnrTracker {
 public:
  explicit EsnrTracker(Time window);

  void add(net::ClientId client, net::ApId ap, Time now, double esnr_db);

  /// Window median for one link, if any sample is in-window.
  [[nodiscard]] std::optional<double> median(net::ClientId client,
                                             net::ApId ap, Time now);

  /// The selection rule: AP with maximal window-median ESNR. `evicted`,
  /// when non-null, is indexed by AP and masks APs out of the argmax — the
  /// controller passes its liveness eviction set so a Dead AP can never win
  /// selection no matter how good its (stale) CSI looks.
  [[nodiscard]] std::optional<net::ApId> best_ap(
      net::ClientId client, Time now,
      const std::vector<bool>* evicted = nullptr);

  /// APs that have heard the client within `freshness` — the controller's
  /// downlink fan-out set (paper §3.1.2 footnote 1).
  [[nodiscard]] std::vector<net::ApId> fresh_aps(net::ClientId client, Time now,
                                                 Time freshness);

  /// When this link last produced CSI (any age), if ever.
  [[nodiscard]] std::optional<Time> last_heard(net::ClientId client,
                                               net::ApId ap) const;

  /// Most recent metric sample on this link, regardless of window age.
  /// Used to judge challengers while the serving AP is briefly silent.
  [[nodiscard]] std::optional<double> last_value(net::ClientId client,
                                                 net::ApId ap) const;

  [[nodiscard]] Time window() const { return window_; }

  /// AP index of the last AP to report CSI for this client, or -1.
  [[nodiscard]] int anchor_ap(net::ClientId client) const;

 private:
  struct Link {
    net::ApId ap;
    StreamingMedian samples;
    Time last_heard = Time::zero();
    double last_value = 0.0;
    Link(net::ApId a, Time w) : ap(a), samples(w) {}
  };
  struct PerClient {
    std::vector<Link> links;  // first-heard order
    int anchor = -1;          // AP index of the last reporter
  };

  [[nodiscard]] Link* find_link(PerClient& pc, net::ApId ap);
  [[nodiscard]] const Link* find_link(const PerClient& pc, net::ApId ap) const;

  Time window_;
  std::unordered_map<net::ClientId, PerClient> clients_;
};

}  // namespace wgtt::core
