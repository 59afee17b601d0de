// Metrics layer: named counters, gauges, and fixed-bucket histograms.
//
// The paper's evaluation is built on tcpdump-grade visibility: switch
// timing (Table 1), spurious-retransmission counts (Table 3) and per-AP
// airtime shares are all *measured*. The MetricsRegistry is the in-process
// equivalent: every component registers its counters under a stable
// `component.metric` name, increments them on the hot path (relaxed
// atomics, no locks), and the registry snapshots the whole system as JSON.
//
// Naming scheme: `component.metric`, lower_snake_case, with the unit as a
// suffix where one applies (`controller.switch_time_ms`, `tcp.rtt_ms`).
// Registering the same name twice returns the same instrument, so several
// instances of a component (the eight APs, say) naturally aggregate.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wgtt::obs {

/// Monotonic event count. Relaxed atomic: single writers are free, and
/// concurrent writers (a future threaded scheduler) never tear.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written instantaneous value (queue depth, table occupancy).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram over [lo, hi): `num_buckets` equal-width linear
/// buckets plus explicit underflow/overflow counts and exact min/max/sum.
/// Percentile queries interpolate linearly inside the bucket that crosses
/// the requested rank and clamp to the observed [min, max], so a
/// single-sample histogram answers every percentile exactly and estimates
/// are never off by more than one bucket width.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t num_buckets);

  void observe(double x);

  /// Adds samples binned elsewhere against this histogram's layout:
  /// `underflow` more below lo(), `buckets[i]` more in bucket i (one entry
  /// per bucket, else ignored), `overflow` more at or above hi(), whose
  /// values total `sum` and span [min, max]. The event profiler counts
  /// integer buckets per event and folds them in here.
  void add_binned(std::uint64_t underflow,
                  std::span<const std::uint64_t> buckets,
                  std::uint64_t overflow, double sum, double min, double max);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Exact observed extrema (0 when empty).
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;

  /// q in [0, 1]; 0 when empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p90() const { return percentile(0.90); }
  [[nodiscard]] double p99() const { return percentile(0.99); }

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t underflow() const {
    return underflow_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }

  /// Folds `other` into this histogram: bucket-wise counts add, sum adds,
  /// and the extrema widen. Both histograms must have been registered with
  /// the same [lo, hi) range and bucket count — merging different layouts
  /// would silently misattribute counts, so that case is ignored (merge is
  /// a no-op and the caller's layout wins, mirroring the first-registration
  /// rule in MetricsRegistry::histogram).
  void merge_from(const Histogram& other);

 private:
  /// The underflow, overflow or bucket counter that `x` falls in.
  std::atomic<std::uint64_t>& slot(double x);

  double lo_;
  double hi_;
  double width_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Owns every instrument, keyed by name. Registration takes a mutex (cold
/// path: components resolve raw pointers once in set_metrics); increments
/// go straight to the instrument. std::map keeps snapshots sorted, so the
/// JSON output is byte-for-byte deterministic for a deterministic run.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Returns the existing histogram if `name` was registered before (the
  /// bucket layout of the first registration wins).
  Histogram& histogram(std::string_view name, double lo, double hi,
                       std::size_t num_buckets);

  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// JSON snapshot (schema documented in DESIGN.md §Observability).
  void write_json(std::ostream& out) const;
  [[nodiscard]] std::string to_json() const;

  /// Folds another registry into this one: counters add, histograms merge
  /// bucket-wise (layouts must match — see Histogram::merge_from), and
  /// gauges take `other`'s value (last-write-wins, in merge order).
  /// Instruments missing on this side are created. The bench TrialPool
  /// uses this to combine per-trial registries into one aggregate snapshot
  /// in trial-index order, so the merged JSON is independent of how many
  /// worker threads ran the trials.
  void merge_from(const MetricsRegistry& other);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace wgtt::obs
