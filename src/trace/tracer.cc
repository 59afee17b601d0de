#include "trace/tracer.h"

#include <ostream>

#include "scenario/wgtt_system.h"

namespace wgtt::trace {

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kFrameTx: return "frame_tx";
    case EventKind::kPacketDelivered: return "packet_delivered";
    case EventKind::kUplinkAccepted: return "uplink_accepted";
    case EventKind::kSwitchInitiated: return "switch_initiated";
    case EventKind::kSwitchCompleted: return "switch_completed";
    case EventKind::kCsiReport: return "csi_report";
    case EventKind::kFanoutEmptyDrop: return "fanout_empty_drop";
  }
  return "?";
}

std::optional<EventKind> event_kind_from_string(std::string_view name) {
  for (int i = 0; i < kNumEventKinds; ++i) {
    const auto kind = static_cast<EventKind>(i);
    if (to_string(kind) == name) return kind;
  }
  return std::nullopt;
}

std::size_t Tracer::count(EventKind kind, int client) const {
  std::size_t n = 0;
  events_.for_each([&](const Event& e) {
    if (e.kind == kind && (client < 0 || e.client == client)) ++n;
  });
  return n;
}

std::vector<double> Tracer::values(EventKind kind, int client) const {
  std::vector<double> out;
  events_.for_each([&](const Event& e) {
    if (e.kind == kind && (client < 0 || e.client == client)) {
      out.push_back(e.value);
    }
  });
  return out;
}

void Tracer::write_csv(std::ostream& out) const {
  out << "when_s,kind,client,node,aux,value\n";
  events_.for_each([&](const Event& e) {
    out << e.when.to_seconds() << ',' << to_string(e.kind) << ',' << e.client
        << ',' << e.node << ',' << e.aux << ',' << e.value << '\n';
  });
}

void attach(Tracer& tracer, scenario::WgttSystem& system) {
  // Per-client delivery events (chain any user handler).
  for (int i = 0; i < system.num_clients(); ++i) {
    auto& client = system.client(i);
    client.on_downlink = [&tracer, &system, i,
                          prev = std::move(client.on_downlink)](
                             const net::Packet& p) {
      if (prev) prev(p);
      tracer.record({system.now(), EventKind::kPacketDelivered, i, i, -1,
                     static_cast<double>(p.payload_bytes)});
    };
  }

  for (int d = 0; d < system.num_domains(); ++d) {
    auto& ctrl = system.controller(d);
    // Switch initiations: the opening edge of the stop→start→ack span.
    ctrl.on_switch_initiated =
        [&tracer, prev = std::move(ctrl.on_switch_initiated)](
            net::ClientId c, std::optional<net::ApId> from, net::ApId to,
            Time t) {
          if (prev) prev(c, from, to, t);
          tracer.record({t, EventKind::kSwitchInitiated,
                         static_cast<int>(net::index_of(c)),
                         from ? static_cast<int>(net::index_of(*from)) : -1,
                         static_cast<int>(net::index_of(to)), 0.0});
        };

    // Switch completions (+ the protocol duration from this controller's
    // switch log).
    ctrl.on_serving_changed = [&tracer, &ctrl,
                               prev = std::move(ctrl.on_serving_changed)](
                                  net::ClientId c, net::ApId ap, Time t) {
      if (prev) prev(c, ap, t);
      double protocol_ms = 0.0;
      if (!ctrl.switch_log().empty()) {
        const auto& rec = ctrl.switch_log().back();
        protocol_ms = (rec.completed - rec.initiated).to_millis();
      }
      tracer.record({t, EventKind::kSwitchCompleted,
                     static_cast<int>(net::index_of(c)),
                     static_cast<int>(net::index_of(ap)), -1, protocol_ms});
    };

    // Downlink packets dropped at the controller because the fan-out set
    // came up empty — the silent-drop path made visible.
    ctrl.on_fanout_empty = [&tracer, prev = std::move(ctrl.on_fanout_empty)](
                               net::ClientId c, Time t) {
      if (prev) prev(c, t);
      tracer.record({t, EventKind::kFanoutEmptyDrop,
                     static_cast<int>(net::index_of(c)), -1, -1, 0.0});
    };
  }

  // Transmissions per AP.
  for (int i = 0; i < system.num_aps(); ++i) {
    auto& mac = system.ap(i).mac();
    mac.on_tx_attempt = [&tracer, &system, i,
                         prev = std::move(mac.on_tx_attempt)](
                            mac::RadioId peer, phy::Mcs mcs, int mpdus) {
      if (prev) prev(peer, mcs, mpdus);
      tracer.record({system.now(), EventKind::kFrameTx, -1, i, -1,
                     static_cast<double>(mpdus)});
    };
  }

  // Uplink packets surviving de-duplication.
  system.on_server_uplink = [&tracer, &system,
                             prev = std::move(system.on_server_uplink)](
                                const net::Packet& p) {
    if (prev) prev(p);
    tracer.record({system.now(), EventKind::kUplinkAccepted,
                   static_cast<int>(net::index_of(p.client)), -1, -1,
                   static_cast<double>(p.payload_bytes)});
  };
}

}  // namespace wgtt::trace
