#include "core/streaming_median.h"

#include <algorithm>

namespace wgtt::core {

void StreamingMedian::add(Time now, double value) {
  evict(now);
  order_.push_back({now, value});
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), value),
                 value);
}

std::optional<double> StreamingMedian::lower_median(Time now) {
  evict(now);
  if (sorted_.empty()) return std::nullopt;
  return sorted_[(sorted_.size() - 1) / 2];
}

void StreamingMedian::evict(Time now) {
  const Time cutoff = now - window_;
  while (!order_.empty() && order_.front().when <= cutoff) {
    // Any copy of an equal value may go: equal doubles are interchangeable.
    sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(),
                                   order_.front().value));
    order_.pop_front();
  }
}

void StreamingMedian::clear() {
  order_.clear();
  sorted_.clear();
}

}  // namespace wgtt::core
