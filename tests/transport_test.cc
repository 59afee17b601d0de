// Tests for the transport substrate: flow statistics, UDP CBR, and the
// NewReno TCP model (growth, fast retransmit, RTO, connection death).
#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>

#include "sim/scheduler.h"
#include "transport/flow_stats.h"
#include "transport/tcp.h"
#include "transport/udp.h"
#include "util/rng.h"

namespace wgtt::transport {
namespace {

TEST(ThroughputRecorderTest, BinsAndSeries) {
  ThroughputRecorder r(Time::ms(100));
  r.add(Time::ms(50), 12'500);   // 1 Mbit in bin 0
  r.add(Time::ms(150), 25'000);  // 2 Mbit in bin 1
  const auto s = r.series();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_NEAR(s[0].mbps, 1.0, 1e-9);
  EXPECT_NEAR(s[1].mbps, 2.0, 1e-9);
  EXPECT_EQ(r.total_bytes(), 37'500u);
}

TEST(ThroughputRecorderTest, AverageOverWindow) {
  ThroughputRecorder r(Time::ms(100));
  for (int i = 0; i < 10; ++i) r.add(Time::ms(i * 100 + 5), 12'500);
  EXPECT_NEAR(r.average_mbps(Time::zero(), Time::sec(1)), 1.0, 1e-9);
  EXPECT_NEAR(r.average_mbps(Time::ms(500), Time::sec(1)), 1.0, 0.3);
  EXPECT_EQ(r.average_mbps(Time::sec(1), Time::sec(1)), 0.0);
}

TEST(LossRecorderTest, GapDetection) {
  LossRecorder lr;
  for (std::uint32_t s : {0u, 1u, 2u, 4u, 5u, 9u}) {
    lr.add(Time::ms(s * 10), s);
  }
  // Seqs 0..9 span 10, received 6 -> loss 0.4 over the whole window.
  EXPECT_NEAR(lr.loss_rate(Time::zero(), Time::sec(1)), 0.4, 1e-9);
  EXPECT_EQ(lr.loss_rate(Time::sec(5), Time::sec(6)), 0.0);  // empty window
}

TEST(LossRecorderTest, Windows) {
  LossRecorder lr;
  lr.add(Time::ms(10), 0);
  lr.add(Time::ms(20), 2);  // one missing in the first 100 ms
  lr.add(Time::ms(110), 3);
  lr.add(Time::ms(120), 4);  // none missing in the second
  const auto w = lr.windows(Time::ms(100), Time::ms(200));
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0].loss, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(w[1].loss, 0.0, 1e-9);
}

TEST(UdpSourceTest, PacesAtConfiguredRate) {
  sim::Scheduler sched;
  int sent = 0;
  std::uint32_t last_seq = 0;
  UdpSource src(
      sched,
      [&](net::Packet p) {
        ++sent;
        last_seq = p.app_seq;
        EXPECT_EQ(p.payload_bytes, 1400u);
        EXPECT_EQ(p.proto, net::Proto::kUdp);
      },
      {.rate_mbps = 11.2, .payload_bytes = 1400});
  src.start();
  sched.run_until(Time::sec(1));
  // 11.2 Mbit/s / (1400*8 bits) = 1000 pkt/s.
  EXPECT_NEAR(sent, 1000, 2);
  EXPECT_EQ(last_seq, static_cast<std::uint32_t>(sent - 1));
  src.stop();
  const int at_stop = sent;
  sched.run_until(Time::sec(2));
  EXPECT_EQ(sent, at_stop);
}

TEST(UdpSourceTest, RejectsRateWithNoPositiveInterval) {
  // A rate that leaves less than 1 ns between packets (or none at all)
  // would schedule every packet at t = 0 forever; 1e-15 Mb/s overflows the
  // interval.
  sim::Scheduler sched;
  for (const double rate : {0.0, -1.0, 1e8, 1e-15,
                            std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(UdpSource(sched, [](net::Packet) {}, {.rate_mbps = rate}),
                 std::invalid_argument)
        << rate;
  }
  // 1e6 Mb/s of 1400-byte packets is 11.2 ns apart: slow, but time moves.
  EXPECT_NO_THROW(UdpSource(sched, [](net::Packet) {}, {.rate_mbps = 1e6}));
}

TEST(UdpSinkTest, CountsAndDeduplicates) {
  UdpSink sink;
  net::Packet p = net::make_packet();
  p.app_seq = 5;
  p.payload_bytes = 100;
  sink.on_packet(Time::ms(1), p);
  sink.on_packet(Time::ms(2), p);  // duplicate app_seq
  EXPECT_EQ(sink.packets_received(), 1u);
  EXPECT_EQ(sink.duplicates(), 1u);
}

// --- TCP harness -------------------------------------------------------------
//
// Sender and receiver connected by a configurable pipe: fixed one-way delay,
// optional deterministic drop pattern. This isolates the TCP state machine
// from the radio stack.
class TcpHarness {
 public:
  explicit TcpHarness(Time one_way = Time::ms(10)) : one_way_(one_way) {
    TcpSender::Config scfg;
    sender = std::make_unique<TcpSender>(
        sched, [this](net::Packet p) { deliver_to_receiver(std::move(p)); },
        scfg);
    receiver = std::make_unique<TcpReceiver>(
        sched, [this](net::Packet p) { deliver_to_sender(std::move(p)); },
        TcpReceiver::Config{});
  }

  void deliver_to_receiver(net::Packet p) {
    if (drop_next_data > 0 && p.payload_bytes > 0) {
      --drop_next_data;
      ++dropped;
      return;
    }
    if (blackhole) return;
    sched.schedule_in(one_way_, [this, p] { receiver->on_data_packet(p); });
  }

  void deliver_to_sender(net::Packet p) {
    if (blackhole_acks) return;
    sched.schedule_in(one_way_, [this, p] { sender->on_ack_packet(p); });
  }

  sim::Scheduler sched;
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpReceiver> receiver;
  int drop_next_data = 0;
  int dropped = 0;
  bool blackhole = false;
  bool blackhole_acks = false;
  Time one_way_;
};

TEST(TcpTest, TransfersFiniteData) {
  TcpHarness h;
  h.sender->send_bytes(100'000);
  h.sched.run_until(Time::sec(10));
  EXPECT_EQ(h.receiver->bytes_delivered(), 100'000u);
  EXPECT_EQ(h.sender->bytes_acked(), 100'000u);
  EXPECT_TRUE(h.sender->alive());
  EXPECT_EQ(h.sender->stats().retransmissions, 0u);
}

TEST(TcpTest, SlowStartDoublesCwnd) {
  TcpHarness h;
  const double cwnd0 = h.sender->cwnd_segments();
  h.sender->set_unlimited(true);
  // After a few RTTs of lossless delivery, cwnd grows well beyond initial.
  h.sched.run_until(Time::ms(200));  // ~10 RTTs
  EXPECT_GT(h.sender->cwnd_segments(), cwnd0 * 4);
}

TEST(TcpTest, ProgressCallbackFires) {
  TcpHarness h;
  std::uint64_t last = 0;
  h.sender->on_progress = [&](std::uint64_t acked) { last = acked; };
  h.sender->send_bytes(50'000);
  h.sched.run_until(Time::sec(5));
  EXPECT_EQ(last, 50'000u);
}

TEST(TcpTest, FastRetransmitRecoversSingleLoss) {
  TcpHarness h;
  h.sender->set_unlimited(true);
  h.sched.run_until(Time::ms(150));  // get a healthy cwnd
  h.drop_next_data = 1;              // drop exactly one segment
  h.sched.run_until(Time::sec(3));
  EXPECT_EQ(h.dropped, 1);
  EXPECT_GE(h.sender->stats().fast_retransmits, 1u);
  EXPECT_EQ(h.sender->stats().rtos, 0u);  // recovered without a timeout
  // Stream keeps making progress past the loss point.
  EXPECT_GT(h.receiver->bytes_delivered(), 500'000u);
}

TEST(TcpTest, RtoOnBlackhole) {
  TcpHarness h;
  h.sender->set_unlimited(true);
  h.sched.run_until(Time::ms(100));
  h.blackhole = true;
  h.sched.run_until(Time::ms(100) + Time::sec(2));
  EXPECT_GE(h.sender->stats().rtos, 1u);
  // Un-blackhole: the connection recovers.
  h.blackhole = false;
  const std::uint64_t before = h.receiver->bytes_delivered();
  h.sched.run_until(Time::ms(100) + Time::sec(8));
  EXPECT_GT(h.receiver->bytes_delivered(), before);
  EXPECT_TRUE(h.sender->alive());
}

TEST(TcpTest, ConnectionDiesAfterRepeatedRtos) {
  TcpHarness h;
  bool died = false;
  h.sender->on_dead = [&] { died = true; };
  h.sender->set_unlimited(true);
  h.sched.run_until(Time::ms(50));
  h.blackhole = true;
  // Default config: max 6 consecutive RTOs with exponential backoff caps
  // at 3 s -> death within ~15 s (the Figure 14 baseline failure mode).
  h.sched.run_until(Time::sec(30));
  EXPECT_TRUE(died);
  EXPECT_FALSE(h.sender->alive());
  // A dead sender stays dead.
  const auto segs = h.sender->stats().segments_sent;
  h.blackhole = false;
  h.sched.run_until(Time::sec(40));
  EXPECT_EQ(h.sender->stats().segments_sent, segs);
}

TEST(TcpTest, ReceiverReordersOutOfOrderSegments) {
  sim::Scheduler sched;
  std::vector<net::Packet> acks;
  TcpReceiver rx(sched, [&](net::Packet p) { acks.push_back(p); },
                 TcpReceiver::Config{});
  auto seg = [&](std::uint64_t seq, std::size_t len) {
    net::Packet p = net::make_packet();
    p.proto = net::Proto::kTcp;
    p.payload_bytes = len;
    p.created = sched.now();
    net::TcpFields f;
    f.seq = seq;
    p.tcp = f;
    return p;
  };
  rx.on_data_packet(seg(0, 1000));
  EXPECT_EQ(rx.bytes_delivered(), 1000u);
  rx.on_data_packet(seg(2000, 1000));  // gap
  EXPECT_EQ(rx.bytes_delivered(), 1000u);
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[1].tcp->ack, 1000u);  // duplicate cumulative ack
  rx.on_data_packet(seg(1000, 1000));  // fills the gap
  EXPECT_EQ(rx.bytes_delivered(), 3000u);
  EXPECT_EQ(acks[2].tcp->ack, 3000u);
}

TEST(TcpTest, ReceiverMergesOverlappingSegments) {
  sim::Scheduler sched;
  int acks = 0;
  TcpReceiver rx(sched, [&](net::Packet) { ++acks; }, TcpReceiver::Config{});
  auto seg = [&](std::uint64_t seq, std::size_t len) {
    net::Packet p = net::make_packet();
    p.proto = net::Proto::kTcp;
    p.payload_bytes = len;
    net::TcpFields f;
    f.seq = seq;
    p.tcp = f;
    return p;
  };
  rx.on_data_packet(seg(1000, 500));
  rx.on_data_packet(seg(1200, 800));  // overlaps previous ooo segment
  rx.on_data_packet(seg(0, 1000));
  EXPECT_EQ(rx.bytes_delivered(), 2000u);
}

TEST(TcpTest, DuplicateDataReAcked) {
  sim::Scheduler sched;
  std::vector<std::uint64_t> acks;
  TcpReceiver rx(sched, [&](net::Packet p) { acks.push_back(p.tcp->ack); },
                 TcpReceiver::Config{});
  net::Packet p = net::make_packet();
  p.proto = net::Proto::kTcp;
  p.payload_bytes = 1000;
  net::TcpFields f;
  f.seq = 0;
  p.tcp = f;
  rx.on_data_packet(p);
  rx.on_data_packet(p);  // retransmitted duplicate (e.g. lost ack)
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0], 1000u);
  EXPECT_EQ(acks[1], 1000u);  // re-acked so the sender can proceed
}

TEST(TcpTest, ThroughputScalesWithRtt) {
  TcpHarness fast(Time::ms(5));
  TcpHarness slow(Time::ms(50));
  fast.sender->set_unlimited(true);
  slow.sender->set_unlimited(true);
  fast.sched.run_until(Time::sec(2));
  slow.sched.run_until(Time::sec(2));
  EXPECT_GT(fast.receiver->bytes_delivered(),
            slow.receiver->bytes_delivered());
}

}  // namespace
}  // namespace wgtt::transport
