#include "trace/timeline.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "scenario/wgtt_system.h"

namespace wgtt::trace {

namespace {
// Same formatting as the metrics JSON writer: independent of any stream
// precision/locale state the caller left behind.
void put_double(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out << buf;
}
}  // namespace

TimelineRecorder::TimelineRecorder(scenario::WgttSystem& system, Config config)
    : system_(system), config_(config) {}

void TimelineRecorder::start() {
  const auto n = static_cast<std::size_t>(system_.num_clients());
  delivered_bytes_.assign(n, 0);
  last_bytes_.assign(n, 0);
  for (int i = 0; i < system_.num_clients(); ++i) {
    auto& client = system_.client(i);
    client.on_downlink = [this, i, prev = std::move(client.on_downlink)](
                             const net::Packet& p) {
      if (prev) prev(p);
      delivered_bytes_[static_cast<std::size_t>(i)] += p.payload_bytes;
    };
  }
  if (!timer_) {
    timer_ = std::make_unique<sim::Timer>(
        system_.sched(), [this] { tick(); }, sim::EventCategory::kTimer);
  }
  timer_->start(config_.tick);
}

void TimelineRecorder::stop() {
  if (timer_) timer_->cancel();
}

void TimelineRecorder::tick() {
  const Time now = system_.sched().now();
  const double tick_s = config_.tick.to_seconds();

  for (int i = 0; i < system_.num_clients(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const net::ClientId cid{static_cast<std::uint32_t>(i)};
    // The controller that owns the client holds its switch state and CSI.
    const core::Controller& ctrl = system_.route_controller(i);
    Sample s;
    s.when = now;
    s.client = i;
    s.serving = system_.serving_ap(i);
    if (const auto debug = ctrl.client_debug(cid)) {
      s.epoch = debug->epoch;
      s.switch_pending = debug->switch_pending;
    }
    const std::uint64_t delta = delivered_bytes_[idx] - last_bytes_[idx];
    last_bytes_[idx] = delivered_bytes_[idx];
    s.goodput_mbps =
        tick_s > 0.0 ? static_cast<double>(delta) * 8.0 / 1e6 / tick_s : 0.0;

    // Freshest ESNR per AP (const accessors only — see file comment).
    for (int a = 0; a < system_.num_aps(); ++a) {
      const net::ApId ap{static_cast<std::uint32_t>(a)};
      const auto heard = ctrl.tracker().last_heard(cid, ap);
      if (!heard || now - *heard > config_.esnr_freshness) continue;
      const auto value = ctrl.tracker().last_value(cid, ap);
      if (!value) continue;
      s.esnr.push_back({a, *value});
    }
    std::sort(s.esnr.begin(), s.esnr.end(),
              [](const EsnrPoint& a, const EsnrPoint& b) {
                if (a.db != b.db) return a.db > b.db;
                return a.ap < b.ap;
              });
    if (s.esnr.size() > static_cast<std::size_t>(config_.top_aps)) {
      s.esnr.resize(static_cast<std::size_t>(config_.top_aps));
    }

    if (probe_) s.transport = probe_(i);
    samples_.push_back(std::move(s));
  }
  timer_->start(config_.tick);
}

void TimelineRecorder::write_jsonl(std::ostream& out) const {
  for (const Sample& s : samples_) {
    out << "{\"t_s\":";
    put_double(out, s.when.to_seconds());
    out << ",\"client\":" << s.client << ",\"serving\":" << s.serving
        << ",\"epoch\":" << s.epoch << ",\"switch_pending\":"
        << (s.switch_pending ? "true" : "false") << ",\"goodput_mbps\":";
    put_double(out, s.goodput_mbps);
    out << ",\"esnr\":[";
    for (std::size_t k = 0; k < s.esnr.size(); ++k) {
      if (k > 0) out << ',';
      out << "{\"ap\":" << s.esnr[k].ap << ",\"db\":";
      put_double(out, s.esnr[k].db);
      out << '}';
    }
    out << ']';
    if (s.transport) {
      out << ",\"cwnd_segments\":";
      put_double(out, s.transport->cwnd_segments);
      out << ",\"srtt_ms\":";
      put_double(out, s.transport->srtt_ms);
    }
    out << "}\n";
  }
}

}  // namespace wgtt::trace
