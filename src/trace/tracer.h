// Event tracing: the simulator's tcpdump.
//
// The paper's methodology logs every packet at the controller and the
// client with tcpdump and post-processes the traces into its figures. The
// Tracer plays the same role here: it subscribes (non-invasively, through
// the existing observation hooks) to a running WgttSystem — every domain's
// controller included — records a typed event stream, and offers per-kind
// counts and values plus CSV export for external plotting and the
// post-mortem bundle.
//
// Storage is a bounded obs::FlightRecorder ring (drop-oldest): a trace of a
// long run keeps the most recent `capacity` events and counts what it shed
// (`dropped()`), instead of growing without bound.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "util/units.h"

namespace wgtt::scenario {
class WgttSystem;
}

namespace wgtt::trace {

enum class EventKind : std::uint8_t {
  kFrameTx,          // an A-MPDU left an AP (node = AP, value = MPDU count)
  kPacketDelivered,  // downlink packet reached a client (node = client, value = bytes)
  kUplinkAccepted,   // uplink packet passed de-dup at the controller
  kSwitchInitiated,  // node = old AP, aux = new AP
  kSwitchCompleted,  // node = new AP, value = protocol ms
  kCsiReport,        // node = AP
  kFanoutEmptyDrop,  // downlink dropped: fan-out set empty after liveness
};

/// Total number of EventKind values; kinds are contiguous from 0. Tests
/// iterate this to catch a new kind left out of to_string/from_string.
inline constexpr int kNumEventKinds = 7;

[[nodiscard]] std::string_view to_string(EventKind kind);
/// Inverse of to_string (CSV round trip); nullopt for unknown names.
[[nodiscard]] std::optional<EventKind> event_kind_from_string(
    std::string_view name);

struct Event {
  Time when;
  EventKind kind;
  int client = -1;
  int node = -1;   // AP or client index, by kind
  int aux = -1;
  double value = 0.0;
};

class Tracer {
 public:
  /// Default ring capacity: ~260k events (≈10 MB), comfortably above any
  /// single drive-by experiment, bounded for long-running simulations.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  explicit Tracer(std::size_t capacity = kDefaultCapacity)
      : events_(capacity) {}

  void record(Event e) { events_.push(e); }

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::size_t capacity() const { return events_.capacity(); }
  /// Events shed by the ring (oldest-first) once capacity was reached.
  [[nodiscard]] std::uint64_t dropped() const { return events_.dropped(); }
  /// i-th oldest retained event.
  [[nodiscard]] const Event& event(std::size_t i) const {
    return events_.at(i);
  }
  void clear() { events_.clear(); }

  /// Number of events of one kind (optionally for one client).
  [[nodiscard]] std::size_t count(EventKind kind, int client = -1) const;

  /// `value` field of every event of `kind` (optionally for one client);
  /// e.g. the per-switch protocol milliseconds of kSwitchCompleted.
  [[nodiscard]] std::vector<double> values(EventKind kind,
                                           int client = -1) const;

  /// CSV export: when_s,kind,client,node,aux,value — one row per event.
  void write_csv(std::ostream& out) const;

 private:
  obs::FlightRecorder<Event> events_;
};

/// Subscribes a tracer to a WgttSystem's observation hooks. Existing hook
/// consumers are preserved (handlers are chained). Call after start() and
/// after any hooks of your own are installed.
void attach(Tracer& tracer, scenario::WgttSystem& system);

}  // namespace wgtt::trace
