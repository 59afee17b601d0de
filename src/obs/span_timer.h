// Span-style phase timing for multi-step protocols.
//
// The switch protocol's cost is a chain of legs — stop received -> start
// sent (old AP), start received -> ack sent (new AP), stop sent -> ack
// received (controller) — and Table 1 is exactly the distribution of those
// legs. A SpanTracker stamps begin(key) and, at end(key), feeds the elapsed
// milliseconds into a histogram. Keys are caller-chosen (client index for
// the switch protocol), so overlapping spans of different clients coexist.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/units.h"

namespace wgtt::obs {

class SpanTracker {
 public:
  explicit SpanTracker(Histogram* sink_ms = nullptr) : sink_(sink_ms) {}

  void set_sink(Histogram* sink_ms) { sink_ = sink_ms; }

  /// Opens (or restarts) the span for `key` at `now`.
  void begin(std::uint64_t key, Time now) { open_[key] = now; }

  /// Closes the span for `key`; observes and returns the elapsed
  /// milliseconds, or nullopt if no span was open.
  std::optional<double> end(std::uint64_t key, Time now) {
    auto it = open_.find(key);
    if (it == open_.end()) return std::nullopt;
    const double ms = (now - it->second).to_millis();
    open_.erase(it);
    if (sink_ != nullptr) sink_->observe(ms);
    return ms;
  }

  [[nodiscard]] std::size_t open_spans() const { return open_.size(); }

 private:
  Histogram* sink_;
  std::unordered_map<std::uint64_t, Time> open_;
};

}  // namespace wgtt::obs
