// Tests for the cyclic queue and the WGTT AP's data/control-plane logic:
// fan-in of downlink packets, the stop/start/ack switching protocol, stale
// drop, and block-ACK forwarding with de-duplication.
#include <gtest/gtest.h>

#include <optional>

#include "ap/cyclic_queue.h"
#include "ap/wgtt_ap.h"
#include "mac/medium.h"
#include "net/backhaul.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace wgtt::ap {
namespace {

using net::ApId;
using net::BackhaulMessage;
using net::ClientId;
using net::NodeId;

net::Packet data_packet(ClientId c, Time created) {
  net::Packet p = net::make_packet();
  p.client = c;
  p.proto = net::Proto::kUdp;
  p.payload_bytes = 1400;
  p.created = created;
  return p;
}

TEST(CyclicQueueTest, PutTakeBasics) {
  net::PacketPool pool;
  CyclicQueue q(&pool);
  EXPECT_EQ(q.occupancy(), 0u);
  EXPECT_FALSE(q.has(5));
  net::Packet p = net::make_packet();
  p.payload_bytes = 100;
  q.put(5, p);
  EXPECT_TRUE(q.has(5));
  EXPECT_EQ(q.occupancy(), 1u);
  ASSERT_NE(q.peek(5), nullptr);
  EXPECT_EQ(q.peek(5)->payload_bytes, 100u);
  auto taken = q.take(5);
  ASSERT_TRUE(taken.has_value());
  EXPECT_FALSE(q.has(5));
  EXPECT_EQ(q.occupancy(), 0u);
  EXPECT_FALSE(q.take(5).has_value());
}

TEST(CyclicQueueTest, IndexMasking) {
  net::PacketPool pool;
  CyclicQueue q(&pool);
  net::Packet p = net::make_packet();
  q.put(4096 + 7, p);  // masked to 7
  EXPECT_TRUE(q.has(7));
}

TEST(CyclicQueueTest, OverwriteSameSlot) {
  net::PacketPool pool;
  CyclicQueue q(&pool);
  net::Packet a = net::make_packet();
  a.payload_bytes = 1;
  net::Packet b = net::make_packet();
  b.payload_bytes = 2;
  q.put(9, a);
  q.put(9, b);
  EXPECT_EQ(q.occupancy(), 1u);
  EXPECT_EQ(q.peek(9)->payload_bytes, 2u);
}

TEST(CyclicQueueTest, NewestTracksLastPut) {
  net::PacketPool pool;
  CyclicQueue q(&pool);
  EXPECT_FALSE(q.newest().has_value());
  q.put(10, net::make_packet());
  q.put(12, net::make_packet());
  EXPECT_EQ(q.newest().value(), 12);
  q.clear();
  EXPECT_EQ(q.occupancy(), 0u);
  EXPECT_FALSE(q.newest().has_value());
}

TEST(CyclicQueueTest, FullLapKeepsAllSlots) {
  net::PacketPool pool;
  CyclicQueue q(&pool);
  for (std::uint16_t i = 0; i < CyclicQueue::kIndexSpace; ++i) {
    q.put(i, net::make_packet());
  }
  EXPECT_EQ(q.occupancy(), static_cast<std::size_t>(CyclicQueue::kIndexSpace));
}

TEST(CyclicQueueTest, DropDiscardsWithoutMaterializing) {
  net::PacketPool pool;
  CyclicQueue q(&pool);
  q.put(3, net::make_packet());
  EXPECT_TRUE(q.drop(3));
  EXPECT_FALSE(q.has(3));
  EXPECT_EQ(q.occupancy(), 0u);
  EXPECT_FALSE(q.drop(3));  // already empty
}

TEST(CyclicQueueTest, SharedHandleSurvivesPeerCrashWipe) {
  // The fan-out invariant: N queues hold N references to ONE pooled packet.
  // Wiping one queue (an AP crash) must leave every other queue's view of
  // the shared slot intact, and taking from the survivors must not disturb
  // the rest either.
  net::PacketPool pool;
  CyclicQueue a(&pool);
  CyclicQueue b(&pool);
  CyclicQueue c(&pool);
  net::Packet p = net::make_packet();
  p.payload_bytes = 777;
  const auto h = pool.acquire(std::move(p));  // controller's acquisition ref
  pool.add_ref(h);
  a.put_handle(40, h);
  pool.add_ref(h);
  b.put_handle(40, h);
  pool.add_ref(h);
  c.put_handle(40, h);
  pool.drop(h);  // controller lets go; the queues hold theirs
  EXPECT_EQ(pool.ref_count(h), 3u);
  EXPECT_EQ(pool.in_use(), 1u);  // three queues, ONE packet

  a.clear();  // AP a crashes: its ref drops, nothing is copied or moved
  EXPECT_EQ(pool.ref_count(h), 2u);
  ASSERT_NE(b.peek(40), nullptr);
  EXPECT_EQ(b.peek(40)->payload_bytes, 777u);

  const auto from_b = b.take(40);  // shared: must copy, leaving c's view
  ASSERT_TRUE(from_b.has_value());
  EXPECT_EQ(from_b->payload_bytes, 777u);
  ASSERT_NE(c.peek(40), nullptr);
  EXPECT_EQ(c.peek(40)->payload_bytes, 777u);

  const auto from_c = c.take(40);  // last ref: moves out and frees the slot
  ASSERT_TRUE(from_c.has_value());
  EXPECT_EQ(from_c->payload_bytes, 777u);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.total_refs(), 0u);
}

TEST(CyclicQueueTest, OverwriteDropsDisplacedSharedRef) {
  // A new packet landing on an occupied slot drops the displaced occupant's
  // reference; a peer still holding that occupant keeps reading it.
  net::PacketPool pool;
  CyclicQueue a(&pool);
  CyclicQueue b(&pool);
  net::Packet old = net::make_packet();
  old.payload_bytes = 1;
  const auto h = pool.acquire(std::move(old));
  pool.add_ref(h);
  a.put_handle(9, h);
  b.put_handle(9, h);
  net::Packet fresh = net::make_packet();
  fresh.payload_bytes = 2;
  a.put(9, fresh);  // a's ref on the old packet drops; b's stays
  EXPECT_EQ(a.overwrites(), 1u);
  EXPECT_EQ(a.peek(9)->payload_bytes, 2u);
  EXPECT_EQ(b.peek(9)->payload_bytes, 1u);
  EXPECT_EQ(pool.ref_count(h), 1u);
}

// --- WgttAp fixture ---------------------------------------------------------

channel::CsiMeasurement flat_csi(double snr_db, Time when) {
  channel::CsiMeasurement m;
  m.when = when;
  m.subcarrier_snr_db.fill(snr_db);
  m.rssi_dbm = -94.0 + snr_db;
  m.mean_snr_db = snr_db;
  return m;
}

class WgttApTest : public ::testing::Test {
 protected:
  static constexpr ClientId kClient{0};

  WgttApTest() : medium_(sched_, {}), backhaul_(sched_, {}, Rng{99}) {
    // Controller endpoint: records everything it receives.
    backhaul_.attach(NodeId::controller(),
                     [this](NodeId from, BackhaulMessage msg) {
                       controller_log_.emplace_back(from, std::move(msg));
                     });
    ap0_ = make_ap(0);
    ap1_ = make_ap(1);
    // Client radio on the medium.
    client_radio_ = client_mac_template();
    ap0_->register_client(kClient, client_radio_);
    ap1_->register_client(kClient, client_radio_);
  }

  std::unique_ptr<WgttAp> make_ap(int idx) {
    auto ap = std::make_unique<WgttAp>(
        ApId{static_cast<std::uint32_t>(idx)}, sched_, medium_, backhaul_,
        pool_, Rng{static_cast<std::uint64_t>(idx) + 5}, WgttAp::Config{},
        [idx] { return channel::Vec2{idx * 7.5, 15.0}; });
    ap->mac().set_channel_sampler(
        [this](mac::RadioId) { return flat_csi(40.0, sched_.now()); });
    ap->set_ap_directory([this](mac::RadioId r) -> std::optional<ApId> {
      if (ap0_ && r == ap0_->mac().radio()) return ApId{0};
      if (ap1_ && r == ap1_->mac().radio()) return ApId{1};
      return std::nullopt;
    });
    return ap;
  }

  mac::RadioId client_mac_template() {
    client_mac_ = std::make_unique<mac::WifiMac>(
        sched_, medium_, Rng{777}, mac::WifiMac::Config{.shared_rx_scoreboard = true});
    const mac::RadioId id =
        client_mac_->attach([] { return channel::Vec2{0.0, 0.0}; });
    client_mac_->set_channel_sampler(
        [this](mac::RadioId) { return flat_csi(40.0, sched_.now()); });
    client_mac_->set_tx_to_bssid(true);
    client_mac_->add_peer(mac::kBssidWgtt);
    client_mac_->on_deliver = [this](mac::RadioId, const net::Packet& p) {
      client_rx_.push_back(p);
    };
    return id;
  }

  /// Sends what the controller's fan-out sends: one pooled reference.
  void send_downlink(WgttAp& ap, std::uint16_t index) {
    net::Packet p = data_packet(kClient, sched_.now());
    const auto tunnel_bytes = static_cast<std::uint32_t>(p.tunnel_bytes());
    net::PacketPool::Ref payload(pool_, pool_.acquire(std::move(p)));
    backhaul_.send(NodeId::controller(), NodeId::ap(ap.id()),
                   net::DownlinkData{index, std::move(payload), tunnel_bytes});
  }

  int count_controller(auto pred) const {
    int n = 0;
    for (const auto& [from, msg] : controller_log_) {
      if (pred(msg)) ++n;
    }
    return n;
  }

  net::PacketPool pool_;  // outlives the backhaul's messages and AP queues
  sim::Scheduler sched_;
  mac::Medium medium_;
  net::Backhaul backhaul_;
  std::unique_ptr<WgttAp> ap0_;
  std::unique_ptr<WgttAp> ap1_;
  std::unique_ptr<mac::WifiMac> client_mac_;
  mac::RadioId client_radio_{};
  std::vector<net::Packet> client_rx_;
  std::vector<std::pair<NodeId, BackhaulMessage>> controller_log_;
};

TEST_F(WgttApTest, NonServingApBuffersWithoutTransmitting) {
  send_downlink(*ap0_, 0);
  send_downlink(*ap0_, 1);
  sched_.run_until(Time::ms(50));
  EXPECT_EQ(ap0_->cyclic_backlog(kClient), 2u);
  EXPECT_TRUE(client_rx_.empty());
  EXPECT_FALSE(ap0_->serving(kClient));
}

TEST_F(WgttApTest, StartMakesApServeFromIndex) {
  for (std::uint16_t i = 0; i < 5; ++i) send_downlink(*ap0_, i);
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 2});
  sched_.run_until(Time::ms(100));
  EXPECT_TRUE(ap0_->serving(kClient));
  // Serves from index 2: packets 2,3,4 delivered; 0,1 remain buffered.
  EXPECT_EQ(client_rx_.size(), 3u);
  // ack went back to the controller.
  EXPECT_EQ(count_controller([](const BackhaulMessage& m) {
              return std::holds_alternative<net::SwitchAck>(m);
            }),
            1);
}

TEST_F(WgttApTest, SwitchingProtocolHandsOffFirstUnsent) {
  // AP0 serves 0..9; stop arrives mid-stream; AP0 must send start(c, k) to
  // AP1 with k = its first unsent index, and AP1 resumes exactly there.
  for (std::uint16_t i = 0; i < 10; ++i) {
    send_downlink(*ap0_, i);
    send_downlink(*ap1_, i);
  }
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0, /*epoch=*/1});
  sched_.run_until(Time::ms(60));
  const std::size_t delivered_by_ap0 = client_rx_.size();
  EXPECT_GT(delivered_by_ap0, 0u);

  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StopMsg{kClient, ApId{1}, /*epoch=*/2});
  sched_.run_until(Time::ms(300));
  EXPECT_FALSE(ap0_->serving(kClient));
  EXPECT_TRUE(ap1_->serving(kClient));
  EXPECT_EQ(ap0_->stats().stops_handled, 1u);
  EXPECT_EQ(ap1_->stats().starts_handled, 1u);
  // All ten packets arrive exactly once across the two APs.
  EXPECT_EQ(client_rx_.size(), 10u);
}

TEST_F(WgttApTest, SwitchTimingMatchesTableOne) {
  // The stop -> start -> ack pipeline takes ~17 ms (paper Table 1).
  for (std::uint16_t i = 0; i < 3; ++i) {
    send_downlink(*ap0_, i);
    send_downlink(*ap1_, i);
  }
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0, /*epoch=*/1});
  sched_.run_until(Time::ms(100));
  const Time t0 = sched_.now();
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StopMsg{kClient, ApId{1}, /*epoch=*/2});
  // Wait for the SwitchAck from AP1.
  Time acked;
  backhaul_.attach(NodeId::controller(),
                   [&](NodeId, BackhaulMessage msg) {
                     if (std::holds_alternative<net::SwitchAck>(msg)) {
                       acked = sched_.now();
                     }
                   });
  sched_.run_until(t0 + Time::ms(200));
  const double ms = (acked - t0).to_millis();
  EXPECT_GT(ms, 5.0);
  EXPECT_LT(ms, 40.0);
}

TEST_F(WgttApTest, DuplicateStopReplaysRecordedIndexWithoutRequery) {
  // Capture what AP0 hands to AP1 (detaches the real AP1 — fine, the test
  // only watches AP0's side of the handshake).
  std::vector<net::StartMsg> starts_to_ap1;
  backhaul_.attach(NodeId::ap(ApId{1}), [&](NodeId, BackhaulMessage msg) {
    if (const auto* s = std::get_if<net::StartMsg>(&msg)) {
      starts_to_ap1.push_back(*s);
    }
  });
  for (std::uint16_t i = 0; i < 6; ++i) send_downlink(*ap0_, i);
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0, /*epoch=*/1});
  sched_.run_until(Time::ms(60));
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StopMsg{kClient, ApId{1}, /*epoch=*/2});
  sched_.run_until(Time::ms(120));
  ASSERT_EQ(starts_to_ap1.size(), 1u);
  // The ack never comes (AP1 is detached), so the controller would
  // retransmit the stop. The duplicate must replay the RECORDED index, not
  // re-query a pointer that may have moved.
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StopMsg{kClient, ApId{1}, /*epoch=*/2});
  sched_.run_until(Time::ms(180));
  EXPECT_EQ(ap0_->stats().stops_handled, 1u);
  EXPECT_EQ(ap0_->stats().stop_duplicates, 1u);
  ASSERT_EQ(starts_to_ap1.size(), 2u);
  EXPECT_EQ(starts_to_ap1[1].first_unsent_index,
            starts_to_ap1[0].first_unsent_index);
  EXPECT_EQ(starts_to_ap1[1].epoch, starts_to_ap1[0].epoch);
}

TEST_F(WgttApTest, DuplicateStartReacksWithoutRewinding) {
  for (std::uint16_t i = 0; i < 5; ++i) send_downlink(*ap0_, i);
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0, /*epoch=*/1});
  sched_.run_until(Time::ms(100));
  EXPECT_EQ(client_rx_.size(), 5u);
  const auto acks = [this] {
    return count_controller([](const BackhaulMessage& m) {
      return std::holds_alternative<net::SwitchAck>(m);
    });
  };
  EXPECT_EQ(acks(), 1);
  // The ack was lost upstream; the retransmit chain delivers the same
  // start again. The AP must replay the ack but NOT rewind next_index —
  // pre-fix it re-applied k=0 and re-transmitted all five packets.
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0, /*epoch=*/1});
  sched_.run_until(Time::ms(200));
  EXPECT_EQ(acks(), 2);
  EXPECT_EQ(client_rx_.size(), 5u);  // nothing re-delivered
  EXPECT_EQ(ap0_->stats().start_duplicates, 1u);
  EXPECT_EQ(ap0_->stats().starts_handled, 1u);
  EXPECT_EQ(ap0_->stats().index_regressions, 0u);
}

TEST_F(WgttApTest, StaleControlMessagesIgnored) {
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0, /*epoch=*/3});
  sched_.run_until(Time::ms(50));
  EXPECT_TRUE(ap0_->serving(kClient));
  // A delayed stop from a superseded switch (epoch 2 < 3) surfaces late.
  // Acting on it would halt a drain the controller believes is live.
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StopMsg{kClient, ApId{1}, /*epoch=*/2});
  sched_.run_until(Time::ms(120));
  EXPECT_TRUE(ap0_->serving(kClient));
  EXPECT_EQ(ap0_->stats().stops_handled, 0u);
  EXPECT_EQ(ap0_->stats().stale_control_ignored, 1u);
  // A stale start is equally ignored.
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 7, /*epoch=*/1});
  sched_.run_until(Time::ms(180));
  EXPECT_EQ(ap0_->stats().starts_handled, 1u);
  EXPECT_EQ(ap0_->stats().stale_control_ignored, 2u);
}

TEST_F(WgttApTest, StaleCyclicEntriesDropped) {
  send_downlink(*ap0_, 0);
  // Age the packet past the staleness bound before serving begins.
  sched_.run_until(Time::sec(2));
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0});
  sched_.run_until(Time::sec(2) + Time::ms(100));
  EXPECT_TRUE(client_rx_.empty());
  EXPECT_EQ(ap0_->stats().stale_dropped, 1u);
}

TEST_F(WgttApTest, UplinkForwardedToController) {
  net::Packet up = data_packet(kClient, sched_.now());
  up.downlink = false;
  client_mac_->enqueue(mac::kBssidWgtt, up);
  sched_.run_until(Time::ms(50));
  // Both APs decode the BSSID-addressed uplink and forward it.
  EXPECT_EQ(count_controller([](const BackhaulMessage& m) {
              return std::holds_alternative<net::UplinkData>(m);
            }),
            2);
}

TEST_F(WgttApTest, CsiReportedOnClientFrames) {
  net::Packet up = data_packet(kClient, sched_.now());
  up.downlink = false;
  client_mac_->enqueue(mac::kBssidWgtt, up);
  sched_.run_until(Time::ms(50));
  EXPECT_GE(count_controller([](const BackhaulMessage& m) {
              return std::holds_alternative<net::CsiReport>(m);
            }),
            2);  // one per AP at least (data frame; BAs may add more)
}

TEST_F(WgttApTest, ForwardedBaDeduplicated) {
  // Two identical BlockAckForward messages (same over-the-air BA uid, e.g.
  // forwarded by two monitor APs): the second is dropped (§3.2.1).
  backhaul_.send(NodeId::controller(), NodeId::ap(ApId{0}),
                 net::StartMsg{kClient, ApId{0}, 0});
  sched_.run_until(Time::ms(50));
  net::BlockAckForward fwd{kClient, ApId{1}, 0, 0x3, /*ba_uid=*/555};
  backhaul_.send(NodeId::ap(ApId{1}), NodeId::ap(ApId{0}), fwd);
  backhaul_.send(NodeId::ap(ApId{1}), NodeId::ap(ApId{0}), fwd);
  sched_.run_until(Time::ms(100));
  EXPECT_EQ(ap0_->stats().ba_forward_received, 2u);
  EXPECT_EQ(ap0_->stats().ba_forward_duplicate, 1u);
}

}  // namespace
}  // namespace wgtt::ap
