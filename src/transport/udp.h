// Constant-bit-rate UDP source and sink (the paper's iperf3 workloads).
#pragma once

#include <functional>

#include "net/packet.h"
#include "sim/scheduler.h"
#include "transport/flow_stats.h"

namespace wgtt::transport {

using SendFn = std::function<void(net::Packet)>;

class UdpSource {
 public:
  struct Config {
    double rate_mbps = 15.0;
    std::size_t payload_bytes = 1400;
    net::ClientId client{};
    bool downlink = true;
    std::uint16_t src_port = 5201;
    std::uint16_t dst_port = 5201;
  };

  UdpSource(sim::Scheduler& sched, SendFn send, Config config);
  ~UdpSource();
  UdpSource(const UdpSource&) = delete;
  UdpSource& operator=(const UdpSource&) = delete;

  void start();
  void stop();

 private:
  void emit();

  sim::Scheduler& sched_;
  SendFn send_;
  Config config_;
  Time interval_;
  bool running_ = false;
  std::uint32_t next_seq_ = 0;
  std::uint16_t next_ip_id_ = 1;
  sim::EventId pending_{};
};

class UdpSink {
 public:
  explicit UdpSink(Time throughput_bin = Time::ms(100))
      : throughput_(throughput_bin) {}

  void on_packet(Time now, const net::Packet& p);

  [[nodiscard]] const ThroughputRecorder& throughput() const { return throughput_; }
  [[nodiscard]] const LossRecorder& loss() const { return loss_; }
  [[nodiscard]] std::uint64_t packets_received() const { return received_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }

 private:
  ThroughputRecorder throughput_;
  LossRecorder loss_;
  std::uint64_t received_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint32_t highest_seq_seen_ = 0;
  bool any_ = false;
  std::vector<bool> seen_;  // grows with seq space usage
};

}  // namespace wgtt::transport
