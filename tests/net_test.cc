// Unit tests for packets, backhaul messages, and the simulated Ethernet.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/backhaul.h"
#include "net/ids.h"
#include "net/messages.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace wgtt::net {
namespace {

/// A DownlinkData holding the only reference to a pooled copy of `p` (the
/// controller's fan-out message once its acquisition reference is gone).
DownlinkData pooled(PacketPool& pool, const Packet& p, std::uint16_t index) {
  return DownlinkData{index, PacketPool::Ref(pool, pool.acquire(Packet(p))),
                      static_cast<std::uint32_t>(p.tunnel_bytes())};
}

TEST(PacketTest, UidsUniqueAndResettable) {
  reset_packet_uids();
  const Packet a = make_packet();
  const Packet b = make_packet();
  EXPECT_NE(a.uid, b.uid);
  EXPECT_EQ(a.uid, 1u);
  reset_packet_uids();
  EXPECT_EQ(make_packet().uid, 1u);
}

TEST(PacketTest, SizeAccounting) {
  Packet p = make_packet();
  p.proto = Proto::kUdp;
  p.payload_bytes = 1400;
  EXPECT_EQ(p.ip_bytes(), 1400 + kIpUdpHeaderBytes);
  EXPECT_EQ(p.air_bytes(), p.ip_bytes() + kMacHeaderBytes);
  EXPECT_EQ(p.tunnel_bytes(), p.ip_bytes() + kTunnelHeaderBytes);
  p.proto = Proto::kTcp;
  EXPECT_EQ(p.ip_bytes(), 1400 + kIpTcpHeaderBytes);
}

TEST(MessagesTest, WireBytes) {
  Packet p = make_packet();
  p.payload_bytes = 1000;
  PacketPool pool;
  EXPECT_EQ(wire_bytes(pooled(pool, p, 5)), p.tunnel_bytes());
  EXPECT_EQ(wire_bytes(UplinkData{ApId{0}, p}), p.tunnel_bytes());
  EXPECT_EQ(wire_bytes(StopMsg{}), 64u);
  EXPECT_EQ(wire_bytes(StartMsg{}), 64u);
  EXPECT_EQ(wire_bytes(SwitchAck{}), 64u);
  // CSI: 56 subcarriers x 2 B + headers (paper §3.1.1 packs CSI in UDP).
  EXPECT_GT(wire_bytes(CsiReport{}), 112u);
  EXPECT_GT(wire_bytes(AssocSync{}), 0u);
  EXPECT_GT(wire_bytes(BlockAckForward{}), 0u);
  EXPECT_EQ(wire_bytes(Heartbeat{}), 64u);
  EXPECT_EQ(wire_bytes(HeartbeatAck{}), 64u);
}

TEST(MessagesTest, ControlClassification) {
  EXPECT_TRUE(is_control(BackhaulMessage{StopMsg{}}));
  EXPECT_TRUE(is_control(BackhaulMessage{StartMsg{}}));
  EXPECT_TRUE(is_control(BackhaulMessage{SwitchAck{}}));
  // Liveness probes ride the control class: they must not queue behind a
  // bulk data burst, or heartbeat RTT would measure the data backlog.
  EXPECT_TRUE(is_control(BackhaulMessage{Heartbeat{}}));
  EXPECT_TRUE(is_control(BackhaulMessage{HeartbeatAck{}}));
  EXPECT_FALSE(is_control(BackhaulMessage{DownlinkData{}}));
  EXPECT_FALSE(is_control(BackhaulMessage{CsiReport{}}));
  EXPECT_FALSE(is_control(BackhaulMessage{BlockAckForward{}}));
}

TEST(NodeIdTest, IdentityAndHash) {
  EXPECT_EQ(NodeId::controller(), NodeId::controller());
  EXPECT_EQ(NodeId::ap(ApId{3}), NodeId::ap(ApId{3}));
  EXPECT_NE(NodeId::ap(ApId{3}), NodeId::ap(ApId{4}));
  EXPECT_NE(NodeId::controller(), NodeId::ap(ApId{0}));
  std::hash<NodeId> h;
  EXPECT_NE(h(NodeId::controller()), h(NodeId::ap(ApId{0})));
}

class BackhaulTest : public ::testing::Test {
 protected:
  PacketPool pool_;  // declared before any Backhaul, so it outlives them
  sim::Scheduler sched_;
};

TEST_F(BackhaulTest, DeliversWithLatency) {
  Backhaul bh(sched_, {}, Rng{1});
  Time delivered_at;
  bool got = false;
  bh.attach(NodeId::controller(), [&](NodeId from, BackhaulMessage msg) {
    EXPECT_EQ(from, NodeId::ap(ApId{2}));
    EXPECT_TRUE(std::holds_alternative<SwitchAck>(msg));
    delivered_at = sched_.now();
    got = true;
  });
  bh.attach(NodeId::ap(ApId{2}), [](NodeId, BackhaulMessage) {});
  bh.send(NodeId::ap(ApId{2}), NodeId::controller(), SwitchAck{});
  sched_.run_all();
  EXPECT_TRUE(got);
  EXPECT_GT(delivered_at, Time::zero());
  EXPECT_LT(delivered_at, Time::ms(1));  // GigE switch: tens of microseconds
}

TEST_F(BackhaulTest, LargerMessagesTakeLonger) {
  Backhaul::Config cfg;
  cfg.jitter_max = Time::zero();
  Backhaul bh(sched_, cfg, Rng{1});
  Time small_at;
  Time big_at;
  int count = 0;
  bh.attach(NodeId::controller(), [&](NodeId, BackhaulMessage msg) {
    if (std::holds_alternative<StopMsg>(msg)) small_at = sched_.now();
    if (std::holds_alternative<DownlinkData>(msg)) big_at = sched_.now();
    ++count;
  });
  bh.attach(NodeId::ap(ApId{0}), [](NodeId, BackhaulMessage) {});
  Packet p = make_packet();
  p.payload_bytes = 1400;
  bh.send(NodeId::ap(ApId{0}), NodeId::controller(), StopMsg{});
  bh.send(NodeId::ap(ApId{0}), NodeId::controller(), pooled(pool_, p, 0));
  sched_.run_all();
  EXPECT_EQ(count, 2);
  EXPECT_LT(small_at, big_at);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(BackhaulTest, UnattachedDestinationThrows) {
  Backhaul bh(sched_, {}, Rng{1});
  bh.attach(NodeId::ap(ApId{0}), [](NodeId, BackhaulMessage) {});
  EXPECT_THROW(bh.send(NodeId::ap(ApId{0}), NodeId::controller(), StopMsg{}),
               std::logic_error);
}

TEST_F(BackhaulTest, LossInjection) {
  Backhaul::Config cfg;
  cfg.loss_rate = 1.0;
  Backhaul bh(sched_, cfg, Rng{1});
  int got = 0;
  bh.attach(NodeId::controller(), [&](NodeId, BackhaulMessage) { ++got; });
  bh.attach(NodeId::ap(ApId{0}), [](NodeId, BackhaulMessage) {});
  for (int i = 0; i < 10; ++i) {
    bh.send(NodeId::ap(ApId{0}), NodeId::controller(), SwitchAck{});
  }
  sched_.run_all();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(bh.messages_dropped(), 10u);
  EXPECT_EQ(bh.messages_sent(), 10u);
}

TEST_F(BackhaulTest, PartialLossStatistics) {
  Backhaul::Config cfg;
  cfg.loss_rate = 0.3;
  Backhaul bh(sched_, cfg, Rng{5});
  int got = 0;
  bh.attach(NodeId::controller(), [&](NodeId, BackhaulMessage) { ++got; });
  bh.attach(NodeId::ap(ApId{0}), [](NodeId, BackhaulMessage) {});
  for (int i = 0; i < 2000; ++i) {
    bh.send(NodeId::ap(ApId{0}), NodeId::controller(), SwitchAck{});
  }
  sched_.run_all();
  EXPECT_NEAR(got, 1400, 100);
}

TEST_F(BackhaulTest, HandlerReplacement) {
  Backhaul bh(sched_, {}, Rng{1});
  int first = 0;
  int second = 0;
  bh.attach(NodeId::controller(), [&](NodeId, BackhaulMessage) { ++first; });
  bh.attach(NodeId::ap(ApId{0}), [](NodeId, BackhaulMessage) {});
  bh.send(NodeId::ap(ApId{0}), NodeId::controller(), SwitchAck{});
  // Replace before delivery: the new handler receives it (lookup happens at
  // delivery time).
  bh.attach(NodeId::controller(), [&](NodeId, BackhaulMessage) { ++second; });
  sched_.run_all();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST_F(BackhaulTest, PerFlowFifoDespiteJitter) {
  // Regression test: random per-message jitter must never reorder messages
  // between one (src, dst) pair — the WGTT index stream depends on it.
  // (An early version of the backhaul reordered closely spaced sends,
  // which made rejoining APs replay stale cyclic-queue slots.)
  Backhaul::Config cfg;
  cfg.jitter_max = Time::us(200);  // much larger than the serialization gap
  Backhaul bh(sched_, cfg, Rng{11});
  std::vector<std::uint16_t> received;
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage msg) {
    if (auto* d = std::get_if<DownlinkData>(&msg)) {
      received.push_back(d->index);
    }
  });
  bh.attach(NodeId::controller(), [](NodeId, BackhaulMessage) {});
  for (std::uint16_t i = 0; i < 500; ++i) {
    Packet p = make_packet();
    p.payload_bytes = 100;
    bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, i));
  }
  sched_.run_all();
  ASSERT_EQ(received.size(), 500u);
  for (std::uint16_t i = 0; i < 500; ++i) {
    ASSERT_EQ(received[i], i) << "backhaul reordered a flow";
  }
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(BackhaulTest, IndependentFlowsMayInterleave) {
  // FIFO is per flow, not global: flows to different destinations are
  // delivered independently.
  Backhaul::Config cfg;
  cfg.jitter_max = Time::zero();
  Backhaul bh(sched_, cfg, Rng{12});
  std::vector<int> order;
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage) { order.push_back(0); });
  bh.attach(NodeId::ap(ApId{1}), [&](NodeId, BackhaulMessage) { order.push_back(1); });
  Packet big = make_packet();
  big.payload_bytes = 60'000;  // long serialization to AP0
  bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, big, 0));
  bh.send(NodeId::controller(), NodeId::ap(ApId{1}), StopMsg{});
  sched_.run_all();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // the tiny control message was not queued behind
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST(MessagesTest, KindOfMatchesAlternative) {
  EXPECT_EQ(kind_of(BackhaulMessage{DownlinkData{}}), MsgKind::kDownlinkData);
  EXPECT_EQ(kind_of(BackhaulMessage{UplinkData{}}), MsgKind::kUplinkData);
  EXPECT_EQ(kind_of(BackhaulMessage{CsiReport{}}), MsgKind::kCsiReport);
  EXPECT_EQ(kind_of(BackhaulMessage{StopMsg{}}), MsgKind::kStop);
  EXPECT_EQ(kind_of(BackhaulMessage{StartMsg{}}), MsgKind::kStart);
  EXPECT_EQ(kind_of(BackhaulMessage{SwitchAck{}}), MsgKind::kSwitchAck);
  EXPECT_EQ(kind_of(BackhaulMessage{BlockAckForward{}}), MsgKind::kBlockAckForward);
  EXPECT_EQ(kind_of(BackhaulMessage{AssocSync{}}), MsgKind::kAssocSync);
  EXPECT_EQ(kind_of(BackhaulMessage{Heartbeat{}}), MsgKind::kHeartbeat);
  EXPECT_EQ(kind_of(BackhaulMessage{HeartbeatAck{}}), MsgKind::kHeartbeatAck);
}

TEST_F(BackhaulTest, FaultPlanLossTargetsOnlyItsKind) {
  Backhaul::Config cfg;
  cfg.fault(MsgKind::kSwitchAck).loss_rate = 1.0;
  Backhaul bh(sched_, cfg, Rng{7});
  int acks = 0;
  int stops = 0;
  bh.attach(NodeId::controller(), [&](NodeId, BackhaulMessage msg) {
    if (std::holds_alternative<SwitchAck>(msg)) ++acks;
    if (std::holds_alternative<StopMsg>(msg)) ++stops;
  });
  bh.attach(NodeId::ap(ApId{0}), [](NodeId, BackhaulMessage) {});
  for (int i = 0; i < 20; ++i) {
    bh.send(NodeId::ap(ApId{0}), NodeId::controller(), SwitchAck{});
    bh.send(NodeId::ap(ApId{0}), NodeId::controller(), StopMsg{});
  }
  sched_.run_all();
  EXPECT_EQ(acks, 0);
  EXPECT_EQ(stops, 20);
  EXPECT_EQ(bh.fault_dropped(), 20u);
}

TEST_F(BackhaulTest, DropFirstIsDeterministic) {
  Backhaul::Config cfg;
  cfg.fault(MsgKind::kSwitchAck).drop_first = 2;
  Backhaul bh(sched_, cfg, Rng{7});
  int acks = 0;
  bh.attach(NodeId::controller(), [&](NodeId, BackhaulMessage msg) {
    if (std::holds_alternative<SwitchAck>(msg)) ++acks;
  });
  bh.attach(NodeId::ap(ApId{0}), [](NodeId, BackhaulMessage) {});
  for (int i = 0; i < 5; ++i) {
    bh.send(NodeId::ap(ApId{0}), NodeId::controller(), SwitchAck{});
  }
  sched_.run_all();
  // Exactly the first two vanish; the rest pass untouched.
  EXPECT_EQ(acks, 3);
  EXPECT_EQ(bh.fault_dropped(), 2u);
}

TEST_F(BackhaulTest, DuplicationDeliversCopyInOrder) {
  Backhaul::Config cfg;
  cfg.jitter_max = Time::zero();
  cfg.fault(MsgKind::kStart).dup_rate = 1.0;
  Backhaul bh(sched_, cfg, Rng{7});
  std::vector<std::uint16_t> indices;
  bh.attach(NodeId::ap(ApId{1}), [&](NodeId, BackhaulMessage msg) {
    if (const auto* s = std::get_if<StartMsg>(&msg)) {
      indices.push_back(s->first_unsent_index);
    }
  });
  bh.attach(NodeId::ap(ApId{0}), [](NodeId, BackhaulMessage) {});
  bh.send(NodeId::ap(ApId{0}), NodeId::ap(ApId{1}),
          StartMsg{ClientId{0}, ApId{0}, 3, 1});
  bh.send(NodeId::ap(ApId{0}), NodeId::ap(ApId{1}),
          StartMsg{ClientId{0}, ApId{0}, 4, 2});
  sched_.run_all();
  // Each start arrives twice; the copy trails its original and the flow
  // stays in order.
  ASSERT_EQ(indices.size(), 4u);
  EXPECT_EQ(indices[0], 3);
  EXPECT_EQ(indices[1], 3);
  EXPECT_EQ(indices[2], 4);
  EXPECT_EQ(indices[3], 4);
  EXPECT_EQ(bh.messages_duplicated(), 2u);
}

TEST_F(BackhaulTest, InjectedDelayPreservesPerFlowFifo) {
  Backhaul::Config cfg;
  cfg.jitter_max = Time::zero();
  cfg.fault(MsgKind::kDownlinkData).delay_rate = 0.5;
  cfg.fault(MsgKind::kDownlinkData).delay_max = Time::ms(5);
  Backhaul bh(sched_, cfg, Rng{13});
  std::vector<std::uint16_t> received;
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage msg) {
    if (auto* d = std::get_if<DownlinkData>(&msg)) received.push_back(d->index);
  });
  bh.attach(NodeId::controller(), [](NodeId, BackhaulMessage) {});
  for (std::uint16_t i = 0; i < 300; ++i) {
    Packet p = make_packet();
    p.payload_bytes = 100;
    bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, i));
  }
  sched_.run_all();
  ASSERT_EQ(received.size(), 300u);
  for (std::uint16_t i = 0; i < 300; ++i) {
    ASSERT_EQ(received[i], i) << "injected delay reordered a flow";
  }
  EXPECT_GT(bh.messages_delayed(), 0u);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(BackhaulTest, ZeroFaultPlanKeepsSeededRunsIdentical) {
  // Fault injection must be invisible when every knob is zero: the exact
  // same RNG draw sequence, hence bit-identical delivery times. Seeded
  // regression baselines across the repo depend on this.
  auto trace = [](const Backhaul::Config& cfg) {
    sim::Scheduler sched;
    Backhaul bh(sched, cfg, Rng{42});
    std::vector<Time> arrivals;
    bh.attach(NodeId::controller(), [&](NodeId, BackhaulMessage) {
      arrivals.push_back(sched.now());
    });
    bh.attach(NodeId::ap(ApId{0}), [](NodeId, BackhaulMessage) {});
    for (int i = 0; i < 100; ++i) {
      Packet p = make_packet();
      p.payload_bytes = 500;
      bh.send(NodeId::ap(ApId{0}), NodeId::controller(), UplinkData{ApId{0}, p});
    }
    sched.run_all();
    return arrivals;
  };
  Backhaul::Config plain;
  plain.loss_rate = 0.1;
  Backhaul::Config with_plan = plain;  // all FaultPlan knobs still zero
  EXPECT_EQ(trace(plain), trace(with_plan));
}

TEST_F(BackhaulTest, ReorderInjectionEscapesPerFlowFifo) {
  // reorder_rate is the one fault that may break the per-flow FIFO: a
  // reordered message bypasses the clamp (and the watermark update), so
  // later sends genuinely overtake it. Nothing is lost — same multiset,
  // different order.
  Backhaul::Config cfg;
  cfg.jitter_max = Time::zero();
  cfg.fault(MsgKind::kDownlinkData).reorder_rate = 0.3;
  cfg.fault(MsgKind::kDownlinkData).reorder_max = Time::ms(2);
  Backhaul bh(sched_, cfg, Rng{21});
  std::vector<std::uint16_t> received;
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage msg) {
    if (auto* d = std::get_if<DownlinkData>(&msg)) received.push_back(d->index);
  });
  bh.attach(NodeId::controller(), [](NodeId, BackhaulMessage) {});
  for (std::uint16_t i = 0; i < 300; ++i) {
    Packet p = make_packet();
    p.payload_bytes = 100;
    bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, i));
  }
  sched_.run_all();
  ASSERT_EQ(received.size(), 300u);  // reorder never drops
  EXPECT_GT(bh.messages_reordered(), 0u);
  bool out_of_order = false;
  for (std::size_t i = 1; i < received.size(); ++i) {
    if (received[i] < received[i - 1]) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order) << "reorder_rate=0.3 never reordered anything";
  std::vector<std::uint16_t> sorted = received;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint16_t i = 0; i < 300; ++i) {
    ASSERT_EQ(sorted[i], i) << "reorder lost or duplicated a message";
  }
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(BackhaulTest, DownNodeDropsAtSendTimeBothDirections) {
  Backhaul bh(sched_, {}, Rng{3});
  int got = 0;
  bh.attach(NodeId::controller(), [&](NodeId, BackhaulMessage) { ++got; });
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage) { ++got; });
  bh.set_node_up(NodeId::ap(ApId{0}), false);
  EXPECT_FALSE(bh.node_up(NodeId::ap(ApId{0})));
  // Nothing in, nothing out: both directions die at the cut cable.
  bh.send(NodeId::controller(), NodeId::ap(ApId{0}), StopMsg{});
  bh.send(NodeId::ap(ApId{0}), NodeId::controller(), SwitchAck{});
  sched_.run_all();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(bh.link_dropped(), 2u);
  // Re-up restores delivery.
  bh.set_node_up(NodeId::ap(ApId{0}), true);
  EXPECT_TRUE(bh.node_up(NodeId::ap(ApId{0})));
  bh.send(NodeId::controller(), NodeId::ap(ApId{0}), StopMsg{});
  sched_.run_all();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(bh.link_dropped(), 2u);
}

TEST_F(BackhaulTest, MessageInFlightTowardDownNodeIsLost) {
  // The cable cut catches messages already on the wire toward the node,
  // but messages the node sent before the cut still arrive (they are past
  // the cut point).
  Backhaul bh(sched_, {}, Rng{3});
  int to_ap = 0;
  int to_ctrl = 0;
  bh.attach(NodeId::controller(), [&](NodeId, BackhaulMessage) { ++to_ctrl; });
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage) { ++to_ap; });
  bh.send(NodeId::controller(), NodeId::ap(ApId{0}), StopMsg{});
  bh.send(NodeId::ap(ApId{0}), NodeId::controller(), SwitchAck{});
  bh.set_node_up(NodeId::ap(ApId{0}), false);  // cut while both are in flight
  sched_.run_all();
  EXPECT_EQ(to_ap, 0);
  EXPECT_EQ(to_ctrl, 1);
  EXPECT_EQ(bh.link_dropped(), 1u);
}

TEST_F(BackhaulTest, FiniteLinkRateSerializesBackToBack) {
  // With the link model on, consecutive messages on one link queue behind
  // each other at the configured rate: message i's arrival is one
  // serialization time after message i-1's.
  Backhaul::Config cfg;
  cfg.jitter_max = Time::zero();
  cfg.link_rate_mbps = 10.0;  // 1000 B => 800 us each
  Backhaul bh(sched_, cfg, Rng{9});
  std::vector<Time> arrivals;
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage) {
    arrivals.push_back(sched_.now());
  });
  bh.attach(NodeId::controller(), [](NodeId, BackhaulMessage) {});
  Packet p = make_packet();
  p.payload_bytes = 1000 - kIpUdpHeaderBytes - kTunnelHeaderBytes;
  const Time ser = Time::micros(1000.0 * 8.0 / cfg.link_rate_mbps);
  for (std::uint16_t i = 0; i < 3; ++i) {
    bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, i));
  }
  sched_.run_all();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], ser + cfg.switch_overhead);
  EXPECT_EQ(arrivals[1] - arrivals[0], ser);
  EXPECT_EQ(arrivals[2] - arrivals[1], ser);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(BackhaulTest, LinkQueueBoundDropsExcessBytes) {
  // A burst past the byte bound is tail-dropped at send time; the drops are
  // visible in queue_drops() and everything admitted still delivers in
  // order.
  Backhaul::Config cfg;
  cfg.jitter_max = Time::zero();
  cfg.link_rate_mbps = 10.0;
  cfg.link_queue_bytes = 4000;  // ~4 x 1000 B messages deep
  Backhaul bh(sched_, cfg, Rng{9});
  std::vector<std::uint16_t> received;
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage msg) {
    if (auto* d = std::get_if<DownlinkData>(&msg)) received.push_back(d->index);
  });
  bh.attach(NodeId::controller(), [](NodeId, BackhaulMessage) {});
  Packet p = make_packet();
  p.payload_bytes = 1000 - kIpUdpHeaderBytes - kTunnelHeaderBytes;
  for (std::uint16_t i = 0; i < 50; ++i) {
    bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, i));
  }
  sched_.run_all();
  EXPECT_GT(bh.queue_drops(), 0u);
  EXPECT_EQ(bh.queue_drops(), bh.messages_dropped());
  EXPECT_EQ(received.size() + bh.queue_drops(), 50u);
  for (std::size_t i = 1; i < received.size(); ++i) {
    ASSERT_LT(received[i - 1], received[i]);
  }
  EXPECT_GT(bh.max_link_utilization(sched_.now()), 0.0);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(BackhaulTest, BatchingCoalescesDeliveriesInOrder) {
  // A quiet window's worth of fan-out traffic arrives as ONE delivery event
  // carrying every message in send order, on one shared timestamp.
  Backhaul::Config cfg;
  cfg.jitter_max = Time::zero();
  cfg.batching = true;
  Backhaul bh(sched_, cfg, Rng{9});
  std::vector<std::uint16_t> received;
  std::vector<Time> arrivals;
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage msg) {
    if (auto* d = std::get_if<DownlinkData>(&msg)) {
      received.push_back(d->index);
      arrivals.push_back(sched_.now());
    }
  });
  bh.attach(NodeId::controller(), [](NodeId, BackhaulMessage) {});
  Packet p = make_packet();
  p.payload_bytes = 500;
  for (std::uint16_t i = 0; i < 10; ++i) {
    bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, i));
  }
  sched_.run_all();
  ASSERT_EQ(received.size(), 10u);
  EXPECT_EQ(bh.batches_flushed(), 1u);
  EXPECT_EQ(bh.messages_batched(), 10u);
  for (std::uint16_t i = 0; i < 10; ++i) {
    ASSERT_EQ(received[i], i);
    EXPECT_EQ(arrivals[static_cast<std::size_t>(i)], arrivals[0])
        << "batch members must share one arrival timestamp";
  }
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(BackhaulTest, BatchMaxMsgsBoundsCoalescing) {
  Backhaul::Config cfg;
  cfg.jitter_max = Time::zero();
  cfg.batching = true;
  cfg.batch_max_msgs = 4;
  Backhaul bh(sched_, cfg, Rng{9});
  int got = 0;
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage) { ++got; });
  bh.attach(NodeId::controller(), [](NodeId, BackhaulMessage) {});
  Packet p = make_packet();
  p.payload_bytes = 500;
  for (std::uint16_t i = 0; i < 10; ++i) {
    bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, i));
  }
  sched_.run_all();
  EXPECT_EQ(got, 10);
  // 10 sends at max 4 per batch: two full flushes plus the window flush.
  EXPECT_EQ(bh.batches_flushed(), 3u);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(BackhaulTest, ControlFlushesOpenBatchAndStaysBehindIt) {
  // Non-batchable traffic on a link must empty the open batch first — a
  // stop/start can never overtake data queued before it.
  Backhaul::Config cfg;
  cfg.jitter_max = Time::zero();
  cfg.batching = true;
  Backhaul bh(sched_, cfg, Rng{9});
  std::vector<int> order;  // data indices as-is, stop as -1
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage msg) {
    if (auto* d = std::get_if<DownlinkData>(&msg)) {
      order.push_back(d->index);
    } else if (std::holds_alternative<StopMsg>(msg)) {
      order.push_back(-1);
    }
  });
  bh.attach(NodeId::controller(), [](NodeId, BackhaulMessage) {});
  Packet p = make_packet();
  p.payload_bytes = 500;
  for (std::uint16_t i = 0; i < 3; ++i) {
    bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, i));
  }
  bh.send(NodeId::controller(), NodeId::ap(ApId{0}), StopMsg{});
  sched_.run_all();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(order[3], -1);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(BackhaulTest, BatchingPreservesFifoUnderLossDupDelay) {
  // The FIFO-equivalence contract: under loss, duplication and injected
  // delay, a batched flow never overtakes itself — per-flow indices stay
  // non-decreasing, exactly like the per-message path (reorder excepted,
  // tested separately).
  Backhaul::Config cfg;
  cfg.batching = true;
  cfg.batch_max_msgs = 8;
  cfg.fault(MsgKind::kDownlinkData).loss_rate = 0.1;
  cfg.fault(MsgKind::kDownlinkData).dup_rate = 0.1;
  cfg.fault(MsgKind::kDownlinkData).delay_rate = 0.2;
  cfg.fault(MsgKind::kDownlinkData).delay_max = Time::ms(3);
  Backhaul bh(sched_, cfg, Rng{23});
  std::vector<std::uint16_t> received;
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage msg) {
    if (auto* d = std::get_if<DownlinkData>(&msg)) received.push_back(d->index);
  });
  bh.attach(NodeId::controller(), [](NodeId, BackhaulMessage) {});
  for (std::uint16_t i = 0; i < 600; ++i) {
    Packet p = make_packet();
    p.payload_bytes = 200;
    bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, i));
  }
  sched_.run_all();
  EXPECT_GT(bh.messages_batched(), 0u);
  EXPECT_GT(bh.messages_dropped(), 0u);
  EXPECT_GT(bh.messages_duplicated(), 0u);
  ASSERT_GT(received.size(), 0u);
  for (std::size_t i = 1; i < received.size(); ++i) {
    ASSERT_GE(received[i], received[i - 1])
        << "batching let the flow overtake itself at delivery " << i;
  }
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(BackhaulTest, ReorderStillEscapesFifoWithBatching) {
  Backhaul::Config cfg;
  cfg.batching = true;
  cfg.fault(MsgKind::kDownlinkData).reorder_rate = 0.2;
  cfg.fault(MsgKind::kDownlinkData).reorder_max = Time::ms(2);
  Backhaul bh(sched_, cfg, Rng{29});
  std::vector<std::uint16_t> received;
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage msg) {
    if (auto* d = std::get_if<DownlinkData>(&msg)) received.push_back(d->index);
  });
  bh.attach(NodeId::controller(), [](NodeId, BackhaulMessage) {});
  for (std::uint16_t i = 0; i < 400; ++i) {
    Packet p = make_packet();
    p.payload_bytes = 200;
    bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, i));
  }
  sched_.run_all();
  ASSERT_EQ(received.size(), 400u);  // reorder never drops
  bool out_of_order = false;
  for (std::size_t i = 1; i < received.size(); ++i) {
    if (received[i] < received[i - 1]) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order);
  std::vector<std::uint16_t> sorted = received;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint16_t i = 0; i < 400; ++i) ASSERT_EQ(sorted[i], i);
  EXPECT_EQ(pool_.in_use(), 0u);
}

// --- pooled payloads across the backhaul ----------------------------------

TEST_F(BackhaulTest, PooledPayloadRefsDropOnEveryLossPath) {
  // Whatever kills a pooled message — uniform loss, plan loss, a downed
  // link, the queue bound — destroys it and so drops its pool reference, or
  // the payload would leak forever. Drive each path and end at zero refs.
  Backhaul::Config cfg;
  cfg.loss_rate = 0.5;
  cfg.link_rate_mbps = 10.0;
  cfg.link_queue_bytes = 2000;  // tight: forces queue drops too
  Backhaul bh(sched_, cfg, Rng{31});
  int got = 0;
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage msg) {
    if (std::holds_alternative<DownlinkData>(msg)) ++got;
  });
  bh.attach(NodeId::controller(), [](NodeId, BackhaulMessage) {});
  Packet p = make_packet();
  p.payload_bytes = 700;
  for (std::uint16_t i = 0; i < 100; ++i) {
    bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, i));
  }
  // And the in-flight-toward-a-downed-node path:
  bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, 100));
  bh.set_node_up(NodeId::ap(ApId{0}), false);
  sched_.run_all();
  EXPECT_EQ(got, 0);  // the cable cut catches every survivor in flight
  EXPECT_GT(bh.messages_dropped(), 0u);
  EXPECT_GT(bh.queue_drops(), 0u);
  EXPECT_GT(bh.link_dropped(), 0u);
  EXPECT_EQ(pool_.total_refs(), 0u) << "a drop path leaked a payload ref";
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(BackhaulTest, PooledDuplicateCarriesItsOwnRef) {
  Backhaul::Config cfg;
  cfg.fault(MsgKind::kDownlinkData).dup_rate = 1.0;
  Backhaul bh(sched_, cfg, Rng{31});
  int got = 0;
  bh.attach(NodeId::ap(ApId{0}), [&](NodeId, BackhaulMessage msg) {
    if (auto* d = std::get_if<DownlinkData>(&msg)) {
      ++got;
      EXPECT_EQ(d->payload->payload_bytes, 700u);  // the payload is live
    }
  });
  bh.attach(NodeId::controller(), [](NodeId, BackhaulMessage) {});
  Packet p = make_packet();
  p.payload_bytes = 700;
  for (std::uint16_t i = 0; i < 5; ++i) {
    bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, i));
  }
  EXPECT_EQ(pool_.total_refs(), 10u);  // each original + its copy
  EXPECT_EQ(pool_.in_use(), 5u);       // ... sharing one payload
  sched_.run_all();
  EXPECT_EQ(got, 10);
  EXPECT_EQ(pool_.total_refs(), 0u);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(BackhaulTest, PooledBatchDropsRefsWithTheCable) {
  // A whole batch lost to a cable cut drops one ref per member.
  Backhaul::Config cfg;
  cfg.batching = true;
  Backhaul bh(sched_, cfg, Rng{31});
  bh.attach(NodeId::ap(ApId{0}), [](NodeId, BackhaulMessage) {
    FAIL() << "nothing may arrive through a cut cable";
  });
  bh.attach(NodeId::controller(), [](NodeId, BackhaulMessage) {});
  Packet p = make_packet();
  p.payload_bytes = 700;
  for (std::uint16_t i = 0; i < 6; ++i) {
    bh.send(NodeId::controller(), NodeId::ap(ApId{0}), pooled(pool_, p, i));
  }
  bh.set_node_up(NodeId::ap(ApId{0}), false);  // cut while the batch is open
  sched_.run_all();
  EXPECT_EQ(bh.link_dropped(), 6u);
  EXPECT_EQ(pool_.total_refs(), 0u);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST_F(BackhaulTest, PooledPayloadToUnattachedNodeIsDropped) {
  // A send that throws still destroys its message, freeing the payload.
  Backhaul bh(sched_, {}, Rng{31});
  bh.attach(NodeId::ap(ApId{0}), [](NodeId, BackhaulMessage) {});
  Packet p = make_packet();
  EXPECT_THROW(
      bh.send(NodeId::ap(ApId{0}), NodeId::controller(), pooled(pool_, p, 0)),
      std::logic_error);
  EXPECT_EQ(pool_.in_use(), 0u);
}

TEST(PacketPoolTest, RefCountsCopiesAndHandsOffOnRelease) {
  PacketPool pool;
  Packet p = make_packet();
  p.ip_id = 9;
  const PacketPool::Handle h = pool.acquire(std::move(p));
  const PacketPool::Handle other = pool.acquire(make_packet());
  {
    const PacketPool::Ref a(pool, h);  // adopts acquire()'s reference
    EXPECT_EQ(pool.ref_count(h), 1u);
    EXPECT_EQ(a->ip_id, 9);
    EXPECT_EQ((*a).ip_id, 9);

    PacketPool::Ref b = a;  // a copy adds a reference
    EXPECT_EQ(pool.ref_count(h), 2u);
    PacketPool::Ref c = std::move(b);  // a move transfers without one
    EXPECT_EQ(pool.ref_count(h), 2u);
    EXPECT_EQ(c->ip_id, 9);

    const PacketPool::Ref& alias = c;
    c = alias;  // self-assignment is safe
    EXPECT_EQ(pool.ref_count(h), 2u);

    // Assigning over a live Ref drops the reference it held.
    PacketPool::Ref d(pool, other);
    d = c;
    EXPECT_EQ(pool.ref_count(other), 0u);
    EXPECT_EQ(pool.ref_count(h), 3u);

    // release() hands the handle off with its reference, dropping nothing.
    const PacketPool::Handle raw = d.release();
    EXPECT_EQ(raw, h);
    EXPECT_EQ(pool.ref_count(h), 3u);
    pool.drop(raw);

    // A default Ref, moved-from b and released d drop nothing at scope end.
    const PacketPool::Ref empty;
    EXPECT_EQ(pool.ref_count(h), 2u);
  }
  EXPECT_EQ(pool.total_refs(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(PacketPoolTest, RoundTripsPackets) {
  PacketPool pool;
  Packet p = make_packet();
  p.payload_bytes = 1400;
  p.ip_id = 77;
  const auto h = pool.acquire(std::move(p));
  ASSERT_NE(h, PacketPool::kNullHandle);
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(pool.get(h)->ip_id, 77);
  const Packet out = pool.release(h);
  EXPECT_EQ(out.ip_id, 77);
  EXPECT_EQ(out.payload_bytes, 1400u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(PacketPoolTest, RecyclesHandlesAndGrowsByChunks) {
  PacketPool pool;
  // Fill well past one 256-packet chunk, with stable addresses throughout.
  std::vector<PacketPool::Handle> handles;
  std::vector<const Packet*> addrs;
  for (int i = 0; i < 1000; ++i) {
    Packet p = make_packet();
    p.app_seq = static_cast<std::uint32_t>(i);
    handles.push_back(pool.acquire(std::move(p)));
    addrs.push_back(pool.get(handles.back()));
  }
  EXPECT_EQ(pool.in_use(), 1000u);
  EXPECT_GE(pool.capacity(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    // Addresses must not move as later chunks are added.
    EXPECT_EQ(pool.get(handles[static_cast<std::size_t>(i)]),
              addrs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(pool.get(handles[static_cast<std::size_t>(i)])->app_seq,
              static_cast<std::uint32_t>(i));
  }
  for (auto h : handles) pool.release(h);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.peak_in_use(), 1000u);

  // Refilling reuses the freed slots: capacity must not grow.
  const std::size_t cap = pool.capacity();
  for (int i = 0; i < 1000; ++i) {
    handles[static_cast<std::size_t>(i)] = pool.acquire(make_packet());
  }
  EXPECT_EQ(pool.capacity(), cap);
}

TEST(PacketPoolTest, SharedHandleCopiesUntilLastRef) {
  // The fan-out pattern: one acquire, one add_ref per extra holder. Interior
  // releases copy (other holders still read the slot); the last release
  // moves the packet out and recycles the slot.
  PacketPool pool;
  Packet p = make_packet();
  p.payload_bytes = 900;
  p.ip_id = 41;
  const auto h = pool.acquire(std::move(p));
  pool.add_ref(h);
  pool.add_ref(h);
  EXPECT_EQ(pool.ref_count(h), 3u);
  EXPECT_EQ(pool.total_refs(), 3u);
  EXPECT_EQ(pool.in_use(), 1u);  // three refs, ONE packet

  const Packet first = pool.release(h);
  EXPECT_EQ(first.ip_id, 41);
  EXPECT_EQ(pool.ref_count(h), 2u);
  ASSERT_NE(pool.get(h), nullptr);
  EXPECT_EQ(pool.get(h)->ip_id, 41) << "interior release must copy, not move";

  const Packet second = pool.release(h);
  EXPECT_EQ(second.ip_id, 41);
  const Packet last = pool.release(h);
  EXPECT_EQ(last.ip_id, 41);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.total_refs(), 0u);
}

TEST(PacketPoolTest, DropReleasesWithoutMaterializing) {
  PacketPool pool;
  const auto h = pool.acquire(make_packet());
  pool.add_ref(h);
  pool.drop(h);
  EXPECT_EQ(pool.ref_count(h), 1u);
  EXPECT_EQ(pool.in_use(), 1u);
  pool.drop(h);  // last reference frees the slot
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.total_refs(), 0u);
}

TEST(PacketPoolDeathTest, DoubleReleaseAborts) {
  // A second release of a dead handle would corrupt whoever reused the
  // slot — the pool aborts instead of limping (the check survives release
  // builds; assert() would not).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PacketPool pool;
  const auto h = pool.acquire(make_packet());
  pool.drop(h);
  EXPECT_DEATH(pool.drop(h), "dead handle");
  EXPECT_DEATH(pool.release(h), "dead handle");
  EXPECT_DEATH(pool.add_ref(h), "dead handle");
}

}  // namespace
}  // namespace wgtt::net
