// NewReno TCP, enough fidelity for the paper's end-to-end experiments:
// slow start, congestion avoidance, fast retransmit / fast recovery with
// partial-ack handling, an RFC 6298-style RTO with exponential backoff, and
// connection abort after repeated RTOs — the failure mode behind Figure 14,
// where the baseline's stalled handover kills the TCP flow mid-drive.
//
// The sender and receiver exchange net::Packet objects through caller-
// provided send functions, so the same code runs over the WGTT network,
// the Enhanced 802.11r baseline, or a plain test harness.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "net/packet.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "transport/flow_stats.h"

namespace wgtt::transport {

using SendFn = std::function<void(net::Packet)>;

class TcpSender {
 public:
  struct Config {
    std::size_t mss = 1400;               // payload bytes per segment
    double initial_cwnd_segments = 4.0;
    double max_cwnd_segments = 256.0;
    Time min_rto = Time::ms(200);
    Time max_rto = Time::sec(3);
    /// Consecutive RTOs after which the connection is declared dead.
    int max_consecutive_rtos = 6;
    net::ClientId client{};
    bool downlink = true;                 // data flows toward the client
    std::uint16_t src_port = 80;
    std::uint16_t dst_port = 50000;
  };

  struct Stats {
    std::uint64_t segments_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t rtos = 0;
    std::uint64_t bytes_acked = 0;
    double last_srtt_ms = 0.0;
  };

  TcpSender(sim::Scheduler& sched, SendFn send, Config config);

  /// Makes `n` more application bytes available to send.
  void send_bytes(std::uint64_t n);
  /// Bulk mode: never run out of data.
  void set_unlimited(bool v);

  /// Feed an arriving ack (the harness routes uplink packets here).
  void on_ack_packet(const net::Packet& p);

  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] std::uint64_t bytes_acked() const { return snd_una_; }
  [[nodiscard]] double cwnd_segments() const;
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Fires once if the connection aborts (max consecutive RTOs).
  std::function<void()> on_dead;
  /// Progress callback: cumulative acked bytes.
  std::function<void(std::uint64_t)> on_progress;

  /// Registers the `tcp.*` instruments without attaching a flow — ensures a
  /// metrics snapshot carries the keys even when no TCP flow ever runs
  /// (e.g. a UDP-workload drive).
  static void register_metrics(obs::MetricsRegistry& registry);
  /// Starts recording `tcp.*` metrics for this flow (all flows aggregate
  /// into the same series); the counters are bound to stats() fields.
  /// nullptr detaches, keeping the counts made so far.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  void try_send();
  void send_segment(std::uint64_t seq, bool is_retransmission);
  void arm_rto();
  void on_rto();
  void enter_fast_recovery();
  [[nodiscard]] std::uint64_t flight() const { return snd_nxt_ - snd_una_; }
  [[nodiscard]] std::uint64_t available() const;

  sim::Scheduler& sched_;
  SendFn send_;
  Config config_;

  std::uint64_t app_limit_ = 0;   // app bytes made available
  bool unlimited_ = false;

  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  double cwnd_;                   // bytes
  double ssthresh_;               // bytes
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;

  // RTT estimation (RFC 6298).
  bool have_rtt_ = false;
  double srtt_s_ = 0.0;
  double rttvar_s_ = 0.0;
  Time rto_;
  int consecutive_rtos_ = 0;
  std::unique_ptr<sim::Timer> rto_timer_;
  bool alive_ = true;

  std::uint16_t next_ip_id_ = 1;
  Stats stats_;
  obs::CounterBinding counters_;  // stats_ fields -> registry counters

  struct Metrics {
    obs::Gauge* cwnd_segments;
    obs::Histogram* rtt_ms;  // per-sample, from the echoed timestamp
  };
  std::optional<Metrics> metrics_;
};

class TcpReceiver {
 public:
  struct Config {
    net::ClientId client{};
    bool acks_downlink = false;   // acks travel opposite to the data
    std::uint16_t src_port = 50000;
    std::uint16_t dst_port = 80;
  };

  TcpReceiver(sim::Scheduler& sched, SendFn send_ack, Config config);

  /// Feed an arriving data segment.
  void on_data_packet(const net::Packet& p);

  [[nodiscard]] std::uint64_t bytes_delivered() const { return rcv_nxt_; }
  [[nodiscard]] const ThroughputRecorder& goodput() const { return goodput_; }

  /// In-order delivery callback (new contiguous bytes).
  std::function<void(std::uint64_t new_bytes, Time now)> on_delivered;

 private:
  void send_ack(Time ts_echo);

  sim::Scheduler& sched_;
  SendFn send_;
  Config config_;
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::uint64_t> ooo_;  // start -> end (exclusive)
  std::uint16_t next_ip_id_ = 1;
  ThroughputRecorder goodput_{Time::ms(100)};
};

}  // namespace wgtt::transport
