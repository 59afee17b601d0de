#include "transport/udp.h"

#include <algorithm>
#include <stdexcept>

namespace wgtt::transport {

void ThroughputRecorder::add(Time when, std::size_t bytes) {
  if (when < Time::zero()) return;
  const auto idx = static_cast<std::size_t>(when / bin_);
  if (idx >= bins_.size()) bins_.resize(idx + 1, 0);
  bins_[idx] += bytes;
  total_bytes_ += bytes;
}

std::vector<ThroughputRecorder::Point> ThroughputRecorder::series() const {
  std::vector<Point> out;
  out.reserve(bins_.size());
  const double bin_s = bin_.to_seconds();
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    out.push_back({bin_ * static_cast<std::int64_t>(i),
                   static_cast<double>(bins_[i]) * 8.0 / 1e6 / bin_s});
  }
  return out;
}

double ThroughputRecorder::average_mbps(Time from, Time to) const {
  if (to <= from) return 0.0;
  const auto lo = static_cast<std::size_t>(std::max<std::int64_t>(0, from / bin_));
  const auto hi = static_cast<std::size_t>(std::max<std::int64_t>(0, to / bin_));
  std::uint64_t bytes = 0;
  for (std::size_t i = lo; i < bins_.size() && i <= hi; ++i) bytes += bins_[i];
  return static_cast<double>(bytes) * 8.0 / 1e6 / (to - from).to_seconds();
}

void LossRecorder::add(Time when, std::uint32_t app_seq) {
  arrivals_.push_back({when, app_seq});
}

double LossRecorder::loss_rate(Time from, Time to) const {
  std::uint32_t lo_seq = 0;
  std::uint32_t hi_seq = 0;
  std::size_t received = 0;
  bool any = false;
  for (const auto& a : arrivals_) {
    if (a.when < from || a.when >= to) continue;
    if (!any) {
      lo_seq = hi_seq = a.seq;
      any = true;
    } else {
      lo_seq = std::min(lo_seq, a.seq);
      hi_seq = std::max(hi_seq, a.seq);
    }
    ++received;
  }
  if (!any) return 0.0;
  const std::size_t span = hi_seq - lo_seq + 1;
  if (span <= received) return 0.0;
  return static_cast<double>(span - received) / static_cast<double>(span);
}

std::vector<LossRecorder::Window> LossRecorder::windows(Time width,
                                                        Time horizon) const {
  std::vector<Window> out;
  for (Time t = Time::zero(); t < horizon; t += width) {
    out.push_back({t, loss_rate(t, t + width)});
  }
  return out;
}

UdpSource::UdpSource(sim::Scheduler& sched, SendFn send, Config config)
    : sched_(sched), send_(std::move(send)), config_(config) {
  const double pps =
      config_.rate_mbps * 1e6 / 8.0 / static_cast<double>(config_.payload_bytes);
  const double interval_s = 1.0 / pps;
  // Each packet is scheduled one interval after the last, so the interval
  // must round to at least 1 ns (and fit in a Time): a rate of 0 or less,
  // or one too high to leave 1 ns between packets, would schedule every
  // packet at the current instant, and simulated time would stop.
  if (!(interval_s >= 0.5e-9 && interval_s < Time::max().to_seconds())) {
    throw std::invalid_argument(
        "UdpSource: rate_mbps must be positive and leave at least 1 ns "
        "between packets");
  }
  interval_ = Time::seconds(interval_s);
}

UdpSource::~UdpSource() { stop(); }

void UdpSource::start() {
  if (running_) return;
  running_ = true;
  pending_ = sched_.schedule_in(Time::zero(), [this] { emit(); },
                                sim::EventCategory::kTimer);
}

void UdpSource::stop() {
  if (!running_) return;
  running_ = false;
  sched_.cancel(pending_);
}

void UdpSource::emit() {
  if (!running_) return;
  net::Packet p = net::make_packet();
  p.client = config_.client;
  p.downlink = config_.downlink;
  p.proto = net::Proto::kUdp;
  p.src_port = config_.src_port;
  p.dst_port = config_.dst_port;
  p.ip_id = next_ip_id_++;
  p.payload_bytes = config_.payload_bytes;
  p.app_seq = next_seq_++;
  p.created = sched_.now();
  send_(std::move(p));
  pending_ = sched_.schedule_in(interval_, [this] { emit(); },
                                sim::EventCategory::kTimer);
}

void UdpSink::on_packet(Time now, const net::Packet& p) {
  if (p.app_seq >= seen_.size()) seen_.resize(p.app_seq + 1024, false);
  if (seen_[p.app_seq]) {
    ++duplicates_;
    return;
  }
  seen_[p.app_seq] = true;
  ++received_;
  if (!any_ || p.app_seq > highest_seq_seen_) highest_seq_seen_ = p.app_seq;
  any_ = true;
  throughput_.add(now, p.payload_bytes);
  loss_.add(now, p.app_seq);
}

}  // namespace wgtt::transport
