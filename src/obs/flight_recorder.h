// Bounded flight-recorder event sink: a drop-oldest ring buffer.
//
// A flight recorder always accepts the *newest* event — when diagnosing a
// failure, the last seconds matter and the distant past does not.
// Overwritten events are counted so the overflow is visible (exposed as a
// metric by the owners). The AP's remembered block-ack identities reuse it
// for the same reason: only the most recent ones can still be duplicated.
//
// Memory is allocated once at construction and never grows: recording
// 10x the capacity leaves exactly `capacity` events resident.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace wgtt::obs {

template <typename T>
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity) : buf_(capacity) {
    if (capacity == 0) throw std::invalid_argument("FlightRecorder capacity 0");
  }

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Events overwritten (dropped) because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Appends; overwrites (and counts) the oldest event when full.
  void push(T value) {
    if (size_ == buf_.size()) {
      buf_[head_] = std::move(value);
      head_ = (head_ + 1) % buf_.size();
      ++dropped_;
      return;
    }
    buf_[(head_ + size_) % buf_.size()] = std::move(value);
    ++size_;
  }

  /// i-th oldest retained event, 0 <= i < size().
  [[nodiscard]] const T& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("FlightRecorder::at");
    return buf_[(head_ + i) % buf_.size()];
  }

  /// Visits retained events oldest-first.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < size_; ++i) f(buf_[(head_ + i) % buf_.size()]);
  }

  void clear() {
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
  }

 private:
  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace wgtt::obs
