// Tests for the WifiMac state machine: aggregation, block ACK, retransmission,
// duplicate filtering, forwarded-BA injection, beacons, management frames.
//
// The fixture wires two (or three) MACs on one Medium with a controllable
// flat channel per node pair, so tests can set a link to "perfect" or "dead"
// and observe the protocol's reaction deterministically.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mac/medium.h"
#include "mac/wifi_mac.h"
#include "net/packet.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace wgtt::mac {
namespace {

channel::CsiMeasurement flat_csi(double snr_db, Time when) {
  channel::CsiMeasurement m;
  m.when = when;
  m.subcarrier_snr_db.fill(snr_db);
  m.rssi_dbm = -94.0 + snr_db;
  m.mean_snr_db = snr_db;
  return m;
}

net::Packet data_packet(std::size_t bytes = 1400) {
  net::Packet p = net::make_packet();
  p.proto = net::Proto::kUdp;
  p.payload_bytes = bytes;
  return p;
}

class WifiMacTest : public ::testing::Test {
 protected:
  WifiMacTest() : medium_(sched_, {}) {}

  WifiMac& make_mac(channel::Vec2 pos, WifiMac::Config cfg = {}) {
    auto mac = std::make_unique<WifiMac>(sched_, medium_, Rng{seed_++}, cfg);
    WifiMac* raw = mac.get();
    const RadioId id = raw->attach([pos] { return pos; });
    raw->set_channel_sampler([this, id](RadioId peer) {
      return flat_csi(snr(id, peer), sched_.now());
    });
    macs_.push_back(std::move(mac));
    return *raw;
  }

  // Symmetric link SNR table; default 40 dB (perfect).
  static std::pair<std::uint32_t, std::uint32_t> link_key(RadioId a, RadioId b) {
    const auto x = static_cast<std::uint32_t>(a);
    const auto y = static_cast<std::uint32_t>(b);
    return {std::min(x, y), std::max(x, y)};
  }
  double snr(RadioId a, RadioId b) const {
    auto it = snr_.find(link_key(a, b));
    return it == snr_.end() ? 40.0 : it->second;
  }
  void set_snr(RadioId a, RadioId b, double snr_db) {
    snr_[link_key(a, b)] = snr_db;
  }

  sim::Scheduler sched_;
  Medium medium_;
  std::vector<std::unique_ptr<WifiMac>> macs_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> snr_;
  std::uint64_t seed_ = 1000;
};

TEST_F(WifiMacTest, DeliversPacketsOverPerfectLink) {
  WifiMac& tx = make_mac({0, 0});
  WifiMac& rx = make_mac({5, 0});
  tx.add_peer(rx.radio());
  rx.add_peer(tx.radio());
  std::vector<net::Packet> delivered;
  rx.on_deliver = [&](RadioId, const net::Packet& p) { delivered.push_back(p); };
  for (int i = 0; i < 10; ++i) tx.enqueue(rx.radio(), data_packet());
  sched_.run_until(Time::ms(100));
  EXPECT_EQ(delivered.size(), 10u);
  EXPECT_EQ(tx.stats(rx.radio()).mpdus_delivered, 10u);
  EXPECT_EQ(tx.stats(rx.radio()).retransmissions, 0u);
  EXPECT_EQ(tx.queue_depth(rx.radio()), 0u);
}

TEST_F(WifiMacTest, AggregatesQueuedPackets) {
  WifiMac& tx = make_mac({0, 0});
  WifiMac& rx = make_mac({5, 0});
  tx.add_peer(rx.radio());
  rx.add_peer(tx.radio());
  // CSI-driven rate control: at 40 dB it runs MCS7, where the airtime cap
  // admits full 32-MPDU aggregates.
  tx.set_rate_controller(rx.radio(), std::make_unique<phy::EsnrRateSelector>());
  int attempts = 0;
  int total_mpdus = 0;
  tx.on_tx_attempt = [&](RadioId, phy::Mcs, int n) {
    ++attempts;
    total_mpdus += n;
  };
  for (int i = 0; i < 32; ++i) tx.enqueue(rx.radio(), data_packet());
  sched_.run_until(Time::ms(200));
  EXPECT_EQ(total_mpdus, 32);
  // Far fewer attempts than packets: aggregation worked.
  EXPECT_LT(attempts, 10);
}

TEST_F(WifiMacTest, AirtimeCapLimitsLowRateAggregates) {
  WifiMac::Config cfg;
  cfg.max_tx_airtime = Time::millis(4.0);
  WifiMac& tx = make_mac({0, 0}, cfg);
  WifiMac& rx = make_mac({5, 0});
  tx.add_peer(rx.radio());
  rx.add_peer(tx.radio());
  // Force MCS0 via a rate controller that always picks the lowest rate.
  class Mcs0Controller : public phy::RateController {
   public:
    phy::Mcs select() override { return phy::Mcs::kMcs0; }
    void report(phy::Mcs, int, int) override {}
  };
  tx.set_rate_controller(rx.radio(), std::make_unique<Mcs0Controller>());
  int max_batch = 0;
  tx.on_tx_attempt = [&](RadioId, phy::Mcs, int n) { max_batch = std::max(max_batch, n); };
  for (int i = 0; i < 32; ++i) tx.enqueue(rx.radio(), data_packet(1400));
  sched_.run_until(Time::ms(500));
  // 4 ms at 7.2 Mbit/s is ~3.6 kB: at most 2-3 MPDUs per aggregate.
  EXPECT_LE(max_batch, 3);
  EXPECT_GE(max_batch, 1);
}

TEST_F(WifiMacTest, RetransmitsOnDeadLinkThenDrops) {
  WifiMac::Config cfg;
  cfg.retry_limit = 3;
  WifiMac& tx = make_mac({0, 0}, cfg);
  WifiMac& rx = make_mac({5, 0});
  tx.add_peer(rx.radio());
  rx.add_peer(tx.radio());
  set_snr(tx.radio(), rx.radio(), -20.0);  // dead link
  tx.enqueue(rx.radio(), data_packet());
  sched_.run_until(Time::sec(2));
  const auto& st = tx.stats(rx.radio());
  EXPECT_EQ(st.mpdus_delivered, 0u);
  EXPECT_EQ(st.mpdus_dropped_retry, 1u);
  EXPECT_GE(st.ba_timeouts, 1u);
  EXPECT_EQ(tx.queue_depth(rx.radio()), 0u);  // eventually gives up
}

TEST_F(WifiMacTest, DuplicateFilterSuppressesRetransmittedDelivery) {
  // Craft the asymmetry the paper fixes with BA forwarding: data gets
  // through but the BA back is lost, so the transmitter retransmits MPDUs
  // the receiver already has. The receiver must deliver each exactly once.
  WifiMac& tx = make_mac({0, 0});
  WifiMac& rx = make_mac({5, 0});
  tx.add_peer(rx.radio());
  rx.add_peer(tx.radio());
  // There is no per-direction SNR knob (reciprocity), so emulate BA loss by
  // a third radio colliding with the BA... simpler: use statistics. Set a
  // marginal link; over many packets some BAs are lost and retransmissions
  // occur, yet deliveries never exceed enqueues.
  set_snr(tx.radio(), rx.radio(), 11.0);
  int delivered = 0;
  rx.on_deliver = [&](RadioId, const net::Packet&) { ++delivered; };
  const int kPackets = 200;
  for (int i = 0; i < kPackets; ++i) tx.enqueue(rx.radio(), data_packet(300));
  sched_.run_until(Time::sec(5));
  EXPECT_LE(delivered, kPackets);
  EXPECT_GT(delivered, kPackets / 2);
  const auto& st = rx.stats(tx.radio());
  // If any retransmission raced a lost BA, duplicates were filtered.
  EXPECT_EQ(st.rx_mpdus_decoded, static_cast<std::uint64_t>(delivered));
}

TEST_F(WifiMacTest, InjectedBlockAckCompletesWithoutRetransmission) {
  WifiMac& tx = make_mac({0, 0});
  WifiMac& rx = make_mac({5, 0});
  tx.add_peer(rx.radio());
  rx.add_peer(tx.radio());
  set_snr(tx.radio(), rx.radio(), -20.0);  // nothing gets through by air
  std::vector<std::uint16_t> seqs;
  tx.on_tx_attempt = [&](RadioId, phy::Mcs, int) {};
  tx.enqueue(rx.radio(), data_packet(), 100);
  tx.enqueue(rx.radio(), data_packet(), 101);
  // Let the first (failing) transmission happen.
  sched_.run_until(Time::ms(20));
  EXPECT_EQ(tx.stats(rx.radio()).mpdus_delivered, 0u);
  // Now a forwarded BA arrives out-of-band claiming both were received.
  BaBitmap ba;
  ba.start_seq = 100;
  ba.set(100);
  ba.set(101);
  tx.inject_block_ack(rx.radio(), ba);
  EXPECT_EQ(tx.stats(rx.radio()).mpdus_delivered, 2u);
  EXPECT_EQ(tx.stats(rx.radio()).mpdus_delivered_via_forwarded_ba, 2u);
  EXPECT_EQ(tx.queue_depth(rx.radio()), 0u);
}

TEST_F(WifiMacTest, ExplicitSequenceNumbersUsed) {
  WifiMac& tx = make_mac({0, 0});
  WifiMac& rx = make_mac({5, 0});
  tx.add_peer(rx.radio());
  rx.add_peer(tx.radio());
  std::vector<std::uint16_t> acked;
  tx.on_mpdu_acked = [&](RadioId, std::uint16_t seq, const net::Packet&) {
    acked.push_back(seq);
  };
  tx.enqueue(rx.radio(), data_packet(), 777);
  tx.enqueue(rx.radio(), data_packet(), 778);
  sched_.run_until(Time::ms(50));
  ASSERT_EQ(acked.size(), 2u);
  EXPECT_EQ(acked[0], 777);
  EXPECT_EQ(acked[1], 778);
}

TEST_F(WifiMacTest, QueueFullDrops) {
  WifiMac::Config cfg;
  cfg.hw_queue_capacity = 4;
  WifiMac& tx = make_mac({0, 0}, cfg);
  WifiMac& rx = make_mac({5, 0});
  tx.add_peer(rx.radio());
  set_snr(tx.radio(), rx.radio(), -20.0);  // keep the queue from draining
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    accepted += tx.enqueue(rx.radio(), data_packet());
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(tx.stats(rx.radio()).enqueue_drops, 6u);
}

TEST_F(WifiMacTest, BeaconsBroadcastPeriodically) {
  WifiMac& ap = make_mac({0, 0});
  WifiMac& client = make_mac({5, 0});
  int beacons_heard = 0;
  client.on_heard = [&](const Frame& f, bool decoded, const channel::CsiMeasurement&) {
    if (std::holds_alternative<BeaconFrame>(f.body) && decoded) ++beacons_heard;
  };
  ap.enable_beacons(Time::ms(100));
  sched_.run_until(Time::ms(1050));
  EXPECT_GE(beacons_heard, 9);
  EXPECT_LE(beacons_heard, 11);
}

TEST_F(WifiMacTest, MgmtFrameDelivery) {
  WifiMac& client = make_mac({0, 0});
  WifiMac& ap = make_mac({5, 0});
  bool got_req = false;
  ap.on_mgmt = [&](RadioId from, MgmtFrame f) {
    EXPECT_EQ(from, client.radio());
    EXPECT_EQ(f.kind, MgmtFrame::Kind::kAssocReq);
    got_req = true;
  };
  client.send_mgmt(ap.radio(), MgmtFrame{MgmtFrame::Kind::kAssocReq});
  sched_.run_until(Time::ms(10));
  EXPECT_TRUE(got_req);
}

TEST_F(WifiMacTest, BssidAddressedFramesAcceptedByApMode) {
  WifiMac::Config ap_cfg;
  ap_cfg.accept_bssid = true;
  WifiMac::Config client_cfg;
  client_cfg.shared_rx_scoreboard = true;
  WifiMac& client = make_mac({0, 0}, client_cfg);
  WifiMac& ap1 = make_mac({5, 0}, ap_cfg);
  WifiMac& ap2 = make_mac({10, 0}, ap_cfg);
  client.set_tx_to_bssid(true);
  client.add_peer(kBssidWgtt);
  ap1.add_peer(client.radio());
  ap2.add_peer(client.radio());
  int got1 = 0;
  int got2 = 0;
  ap1.on_deliver = [&](RadioId, const net::Packet&) { ++got1; };
  ap2.on_deliver = [&](RadioId, const net::Packet&) { ++got2; };
  client.enqueue(kBssidWgtt, data_packet(200));
  sched_.run_until(Time::ms(20));
  // Both APs accept the BSSID-addressed uplink frame (uplink diversity).
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 1);
  // And the client's outstanding aggregate resolves via whichever BA came
  // first (no stuck state).
  EXPECT_EQ(client.queue_depth(kBssidWgtt), 0u);
}

TEST_F(WifiMacTest, SharedScoreboardSurvivesSenderChange) {
  // The WGTT client keeps one downlink dup-filter across APs: the same seq
  // from a second AP (cross-AP retransmission after a switch) must not be
  // delivered twice.
  WifiMac::Config client_cfg;
  client_cfg.shared_rx_scoreboard = true;
  WifiMac& client = make_mac({0, 0}, client_cfg);
  WifiMac& ap1 = make_mac({5, 0});
  WifiMac& ap2 = make_mac({10, 0});
  ap1.add_peer(client.radio());
  ap2.add_peer(client.radio());
  int delivered = 0;
  client.on_deliver = [&](RadioId, const net::Packet&) { ++delivered; };
  net::Packet p = data_packet();
  ap1.enqueue(client.radio(), p, 500);
  sched_.run_until(Time::ms(30));
  ap2.enqueue(client.radio(), p, 500);  // same index from the next AP
  sched_.run_until(Time::ms(60));
  EXPECT_EQ(delivered, 1);
}

TEST_F(WifiMacTest, FlushPeerDropsQueue) {
  WifiMac& tx = make_mac({0, 0});
  WifiMac& rx = make_mac({5, 0});
  tx.add_peer(rx.radio());
  set_snr(tx.radio(), rx.radio(), -20.0);
  for (int i = 0; i < 8; ++i) tx.enqueue(rx.radio(), data_packet());
  EXPECT_GT(tx.queue_depth(rx.radio()), 0u);
  sched_.run_until(Time::sec(2));  // let outstanding tx resolve
  tx.flush_peer(rx.radio());
  EXPECT_EQ(tx.queue_depth(rx.radio()), 0u);
}

TEST_F(WifiMacTest, RoundRobinAcrossPeers) {
  WifiMac& tx = make_mac({0, 0});
  WifiMac& rx1 = make_mac({5, 0});
  WifiMac& rx2 = make_mac({6, 0});
  tx.add_peer(rx1.radio());
  tx.add_peer(rx2.radio());
  rx1.add_peer(tx.radio());
  rx2.add_peer(tx.radio());
  int got1 = 0;
  int got2 = 0;
  rx1.on_deliver = [&](RadioId, const net::Packet&) { ++got1; };
  rx2.on_deliver = [&](RadioId, const net::Packet&) { ++got2; };
  for (int i = 0; i < 20; ++i) {
    tx.enqueue(rx1.radio(), data_packet(300));
    tx.enqueue(rx2.radio(), data_packet(300));
  }
  sched_.run_until(Time::ms(300));
  EXPECT_EQ(got1, 20);
  EXPECT_EQ(got2, 20);
}

/// Sends 40 packets over a 40 dB link with `rc` choosing the rate. Returns
/// how many CSI draws the transmitter made outside its receive path and how
/// many A-MPDUs it sent. With no SNR ceiling set, the receive path draws
/// CSI once for every non-collided frame it hears, and on_heard fires for
/// each one that decodes; on this link every block ACK does.
std::pair<int, int> transmit_csi_draws(std::unique_ptr<phy::RateController> rc) {
  sim::Scheduler sched;
  Medium medium(sched, {});
  WifiMac tx(sched, medium, Rng{1}, {});
  WifiMac rx(sched, medium, Rng{2}, {});
  tx.attach([] { return channel::Vec2{0, 0}; });
  rx.attach([] { return channel::Vec2{5, 0}; });
  int draws = 0;
  tx.set_channel_sampler([&](RadioId) {
    ++draws;
    return flat_csi(40.0, sched.now());
  });
  rx.set_channel_sampler([&](RadioId) { return flat_csi(40.0, sched.now()); });
  int heard = 0;
  tx.on_heard = [&](const Frame&, bool, const channel::CsiMeasurement&) { ++heard; };
  int ampdus = 0;
  tx.on_tx_attempt = [&](RadioId, phy::Mcs, int) { ++ampdus; };
  tx.add_peer(rx.radio());
  rx.add_peer(tx.radio());
  tx.set_rate_controller(rx.radio(), std::move(rc));
  for (int i = 0; i < 40; ++i) tx.enqueue(rx.radio(), data_packet());
  sched.run_until(Time::ms(200));
  return {draws - heard, ampdus};
}

TEST(WifiMacCsiDrawTest, OnlyCsiDrivenRateControlDrawsCsiOnTransmit) {
  const auto [esnr_draws, esnr_ampdus] =
      transmit_csi_draws(std::make_unique<phy::EsnrRateSelector>());
  EXPECT_GT(esnr_ampdus, 0);
  EXPECT_EQ(esnr_draws, esnr_ampdus);  // one fresh CSI per A-MPDU

  const auto [minstrel_draws, minstrel_ampdus] =
      transmit_csi_draws(std::make_unique<phy::MinstrelLite>(
          phy::MinstrelLite::Config{}, Rng{3}));
  EXPECT_GT(minstrel_ampdus, 0);
  EXPECT_EQ(minstrel_draws, 0);  // Minstrel ignores CSI: nothing drawn
}

}  // namespace
}  // namespace wgtt::mac
