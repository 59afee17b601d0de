// Streaming lower-median over a time-based sliding window.
//
// The paper's AP selection (§3.1.1) ranks APs by e_{floor(L/2)} — the lower
// median — of each link's ESNR readings from the last W milliseconds: sort
// the window, take the middle reading. StreamingMedian keeps the window
// sorted as it slides instead of re-sorting it on every CSI report. An
// arrival-order deque drives eviction; an ascending vector holds the same
// values, so the median is one index. Insertion and eviction are a binary
// search plus a shift of the live samples, and the live count is small: at
// W = 10 ms a link never held more than 17 samples in the measured drives,
// and at W = 1 s (the Figure 21 sweep's widest window) at most 578
// (DESIGN.md §8). Results are bit-identical to the sort-based computation
// because equal doubles are interchangeable.
//
// Single-threaded, like everything on one Scheduler. Used by
// core::EsnrTracker; tested against util/stats lower_median in core_test.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "util/units.h"

namespace wgtt::core {

class StreamingMedian {
 public:
  /// `window`: samples with timestamp <= now - window are expired.
  explicit StreamingMedian(Time window) : window_(window) {}

  /// Inserts a sample and expires anything older than the window.
  void add(Time now, double value);

  /// Lower median e_{floor(L/2)} (1-based, i.e. 0-based rank (n-1)/2) of
  /// the samples still in-window at `now`; nullopt if none remain.
  [[nodiscard]] std::optional<double> lower_median(Time now);

  /// Live (in-window as of the last add/lower_median) sample count.
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }
  [[nodiscard]] bool empty() const { return sorted_.empty(); }
  [[nodiscard]] Time window() const { return window_; }

  void clear();

 private:
  struct Sample {
    Time when;
    double value;
  };

  /// Expires samples older than the window at `now`.
  void evict(Time now);

  Time window_;
  std::deque<Sample> order_;    // arrival order, drives eviction
  std::vector<double> sorted_;  // the same live values, ascending
};

}  // namespace wgtt::core
