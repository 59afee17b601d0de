#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace wgtt::obs {

namespace {

void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void json_number(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out << buf;
}

void json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

Histogram::Histogram(double lo, double hi, std::size_t num_buckets)
    : lo_(lo),
      hi_(hi),
      width_((hi - lo) / static_cast<double>(num_buckets == 0 ? 1 : num_buckets)),
      buckets_(num_buckets == 0 ? 1 : num_buckets) {}

void Histogram::observe(double x) {
  const std::uint64_t before =
      count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
  if (before == 0) {
    // First sample seeds the extrema; racing observers still converge via
    // the CAS min/max below.
    min_.store(x, std::memory_order_relaxed);
    max_.store(x, std::memory_order_relaxed);
  } else {
    atomic_min(min_, x);
    atomic_max(max_, x);
  }
  slot(x).fetch_add(1, std::memory_order_relaxed);
}

std::atomic<std::uint64_t>& Histogram::slot(double x) {
  if (x < lo_) return underflow_;
  if (x >= hi_) return overflow_;
  return buckets_[std::min(buckets_.size() - 1,
                           static_cast<std::size_t>((x - lo_) / width_))];
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::percentile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double mn = min();
  const double mx = max();
  const double target = q * static_cast<double>(n);

  // Walk the value ranges in order — [min, lo) for underflow, each bucket,
  // [hi, max] for overflow — and interpolate inside the range where the
  // cumulative count crosses the target rank.
  double cum = 0.0;
  double result = mx;
  bool done = false;
  auto segment = [&](std::uint64_t c, double s_lo, double s_hi) {
    if (done || c == 0) return;
    const double dc = static_cast<double>(c);
    if (cum + dc >= target) {
      const double f = std::clamp((target - cum) / dc, 0.0, 1.0);
      result = s_lo + f * (s_hi - s_lo);
      done = true;
      return;
    }
    cum += dc;
  };

  segment(underflow(), mn, lo_);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    segment(bucket_count(i), lo_ + static_cast<double>(i) * width_,
            lo_ + static_cast<double>(i + 1) * width_);
  }
  segment(overflow(), hi_, mx);
  return std::clamp(result, mn, mx);
}

void Histogram::add_binned(std::uint64_t underflow,
                           std::span<const std::uint64_t> buckets,
                           std::uint64_t overflow, double sum, double min,
                           double max) {
  if (buckets.size() != buckets_.size()) return;
  std::uint64_t n = underflow + overflow;
  for (const std::uint64_t b : buckets) n += b;
  if (n == 0) return;
  const std::uint64_t before = count_.fetch_add(n, std::memory_order_relaxed);
  atomic_add(sum_, sum);
  if (before == 0) {
    min_.store(min, std::memory_order_relaxed);
    max_.store(max, std::memory_order_relaxed);
  } else {
    atomic_min(min_, min);
    atomic_max(max_, max);
  }
  underflow_.fetch_add(underflow, std::memory_order_relaxed);
  overflow_.fetch_add(overflow, std::memory_order_relaxed);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].fetch_add(buckets[i], std::memory_order_relaxed);
  }
}

void Histogram::merge_from(const Histogram& other) {
  if (other.lo_ != lo_ || other.hi_ != hi_ ||
      other.buckets_.size() != buckets_.size()) {
    return;  // incompatible layout: keep ours untouched
  }
  std::vector<std::uint64_t> counts(buckets_.size());
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] = other.bucket_count(i);
  add_binned(other.underflow(), counts, other.overflow(), other.sum(),
             other.min(), other.max());
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::scoped_lock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::scoped_lock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name, double lo,
                                      double hi, std::size_t num_buckets) {
  std::scoped_lock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(lo, hi, num_buckets))
             .first;
  }
  return *it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  std::scoped_lock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  std::scoped_lock lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  std::scoped_lock lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  // Lock ordering: `other` is read under its own lock into plain snapshots
  // first, so the two registry mutexes are never held together.
  struct HistSnapshot {
    const Histogram* src;
    double lo, hi;
    std::size_t buckets;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistSnapshot>> histograms;
  {
    std::scoped_lock lock(other.mu_);
    for (const auto& [name, c] : other.counters_) {
      counters.emplace_back(name, c->value());
    }
    for (const auto& [name, g] : other.gauges_) {
      gauges.emplace_back(name, g->value());
    }
    for (const auto& [name, h] : other.histograms_) {
      histograms.emplace_back(
          name, HistSnapshot{h.get(), h->lo(), h->hi(), h->num_buckets()});
    }
  }
  for (const auto& [name, v] : counters) counter(name).inc(v);
  for (const auto& [name, v] : gauges) gauge(name).set(v);
  for (const auto& [name, snap] : histograms) {
    histogram(name, snap.lo, snap.hi, snap.buckets).merge_from(*snap.src);
  }
}

void MetricsRegistry::write_json(std::ostream& out) const {
  std::scoped_lock lock(mu_);
  out << "{\n  \"schema\": \"wgtt.metrics.v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    json_string(out, name);
    out << ": " << c->value();
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    json_string(out, name);
    out << ": ";
    json_number(out, g->value());
  }
  out << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    json_string(out, name);
    out << ": {\"count\": " << h->count() << ", \"sum\": ";
    json_number(out, h->sum());
    out << ", \"min\": ";
    json_number(out, h->min());
    out << ", \"max\": ";
    json_number(out, h->max());
    out << ", \"p50\": ";
    json_number(out, h->p50());
    out << ", \"p90\": ";
    json_number(out, h->p90());
    out << ", \"p99\": ";
    json_number(out, h->p99());
    out << ", \"lo\": ";
    json_number(out, h->lo());
    out << ", \"hi\": ";
    json_number(out, h->hi());
    out << ", \"underflow\": " << h->underflow()
        << ", \"overflow\": " << h->overflow() << ", \"bucket_counts\": [";
    for (std::size_t i = 0; i < h->num_buckets(); ++i) {
      if (i != 0) out << ", ";
      out << h->bucket_count(i);
    }
    out << "]}";
  }
  out << "\n  }\n}\n";
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

}  // namespace wgtt::obs
