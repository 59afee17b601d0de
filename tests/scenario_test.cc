// Tests for the testbed geometry and the fully wired WGTT system.
#include <gtest/gtest.h>

#include "mobility/trajectory.h"
#include "scenario/baseline_system.h"
#include "scenario/testbed.h"
#include "scenario/wgtt_system.h"
#include "transport/udp.h"

namespace wgtt::scenario {
namespace {

using net::ClientId;

TEST(TrajectoryTest, LineDriveKinematics) {
  mobility::LineDrive d(-20.0, 1.5, 10.0);
  EXPECT_EQ(d.position(Time::zero()), (channel::Vec2{-20.0, 1.5}));
  EXPECT_EQ(d.position(Time::sec(2)), (channel::Vec2{0.0, 1.5}));
  EXPECT_EQ(d.time_at_x(0.0), Time::sec(2));
  EXPECT_EQ(d.time_at_x(30.0), Time::sec(5));
}

TEST(TrajectoryTest, DelayedDeparture) {
  mobility::LineDrive d(0.0, 0.0, 5.0, Time::sec(10));
  EXPECT_EQ(d.position(Time::sec(5)).x, 0.0);
  EXPECT_EQ(d.position(Time::sec(12)).x, 10.0);
}

TEST(TrajectoryTest, ReverseDirection) {
  mobility::LineDrive d(60.0, 0.0, -10.0);
  EXPECT_EQ(d.position(Time::sec(1)).x, 50.0);
  EXPECT_EQ(d.time_at_x(40.0), Time::sec(2));
}

TEST(GeometryTest, ApLayout) {
  GeometryConfig cfg;
  TestbedGeometry geo(cfg);
  EXPECT_EQ(geo.num_aps(), 8);
  EXPECT_EQ(geo.ap_position(0), (channel::Vec2{0.0, 15.0}));
  EXPECT_EQ(geo.ap_position(7), (channel::Vec2{52.5, 15.0}));
  EXPECT_DOUBLE_EQ(geo.last_ap_x(), 52.5);
}

TEST(GeometryTest, OptimalApFollowsClient) {
  GeometryConfig cfg;
  cfg.seed = 2;
  cfg.aim_jitter_m = 0.0;  // clean geometry for the assertion
  cfg.gain_jitter_db = 0.0;
  cfg.link.shadowing_sigma_db = 0.0;
  TestbedGeometry geo(cfg);
  mobility::StaticPosition at_ap1({7.5, 0.0});
  geo.add_client(&at_ap1);
  // Average over fading: the boresight AP wins most instants.
  int ap1_wins = 0;
  for (int ms = 0; ms < 400; ms += 10) {
    if (geo.optimal_ap(0, Time::ms(ms)) == 1) ++ap1_wins;
  }
  EXPECT_GT(ap1_wins, 30);
}

TEST(GeometryTest, LargeScaleSnrPeaksAtBoresight) {
  GeometryConfig cfg;
  cfg.aim_jitter_m = 0.0;
  cfg.gain_jitter_db = 0.0;
  cfg.link.shadowing_sigma_db = 0.0;
  TestbedGeometry geo(cfg);
  mobility::StaticPosition dummy({0.0, 0.0});
  geo.add_client(&dummy);
  const double at_boresight = geo.large_scale_snr_db(3, {22.5, 0.0});
  const double off_5m = geo.large_scale_snr_db(3, {27.5, 0.0});
  const double off_15m = geo.large_scale_snr_db(3, {37.5, 0.0});
  EXPECT_GT(at_boresight, off_5m);
  EXPECT_GT(off_5m, off_15m);
  // Picocell regime: the cell dies within about two cell widths.
  EXPECT_GT(at_boresight - off_15m, 15.0);
}

TEST(GeometryTest, DeterministicAcrossInstances) {
  GeometryConfig cfg;
  cfg.seed = 77;
  TestbedGeometry a(cfg);
  TestbedGeometry b(cfg);
  mobility::StaticPosition pos({10.0, 0.0});
  a.add_client(&pos);
  b.add_client(&pos);
  for (int ap = 0; ap < 8; ++ap) {
    EXPECT_DOUBLE_EQ(a.esnr_db(ap, 0, Time::ms(5)), b.esnr_db(ap, 0, Time::ms(5)));
  }
}

TEST(GeometryTest, GroundTruthQueriesArePure) {
  GeometryConfig cfg;
  cfg.seed = 78;
  TestbedGeometry geo(cfg);
  mobility::StaticPosition pos({10.0, 0.0});
  geo.add_client(&pos);
  const double before = geo.esnr_db(2, 0, Time::ms(5));
  for (int i = 0; i < 100; ++i) geo.optimal_ap(0, Time::ms(i));
  EXPECT_DOUBLE_EQ(geo.esnr_db(2, 0, Time::ms(5)), before);
}

TEST(WgttSystemTest, EndToEndUdpDelivery) {
  WgttSystemConfig cfg;
  cfg.geometry.seed = 21;
  WgttSystem sys(cfg);
  mobility::StaticPosition pos({22.5, 0.0});
  const int c = sys.add_client(&pos);
  sys.start();
  transport::UdpSink sink;
  sys.client(c).on_downlink = [&](const net::Packet& p) {
    sink.on_packet(sys.now(), p);
  };
  transport::UdpSource src(
      sys.sched(),
      [&](net::Packet p) {
        p.client = ClientId{0};
        sys.server_send(std::move(p));
      },
      {.rate_mbps = 10.0, .client = ClientId{0}});
  src.start();
  sys.run_until(Time::sec(4));
  // A parked client near a boresight receives nearly everything.
  EXPECT_GT(sink.throughput().average_mbps(Time::sec(1), Time::sec(4)), 8.0);
  EXPECT_EQ(sink.duplicates(), 0u);
}

TEST(WgttSystemTest, SwitchesWhileDriving) {
  WgttSystemConfig cfg;
  cfg.geometry.seed = 22;
  WgttSystem sys(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  const int c = sys.add_client(&drive);
  sys.start();
  transport::UdpSource src(
      sys.sched(),
      [&](net::Packet p) {
        p.client = ClientId{0};
        sys.server_send(std::move(p));
      },
      {.rate_mbps = 10.0, .client = ClientId{0}});
  sys.client(c).on_downlink = [](const net::Packet&) {};
  src.start();
  sys.run_until(Time::sec(8));
  const auto& st = sys.controller().stats();
  // The paper observes ~5 switches/s at 15 mph.
  EXPECT_GT(st.switches_completed, 10u);
  EXPECT_LT(st.switches_completed, 120u);
  EXPECT_GT(st.csi_reports, 100u);
}

TEST(WgttSystemTest, UplinkDeduplicatedAcrossAps) {
  WgttSystemConfig cfg;
  cfg.geometry.seed = 23;
  WgttSystem sys(cfg);
  mobility::StaticPosition pos({22.5, 0.0});
  const int c = sys.add_client(&pos);
  sys.start();
  int uplinks = 0;
  sys.on_server_uplink = [&](const net::Packet&) { ++uplinks; };
  sys.run_until(Time::sec(1));
  for (int i = 0; i < 20; ++i) {
    net::Packet p = net::make_packet();
    p.proto = net::Proto::kUdp;
    p.payload_bytes = 400;
    sys.client(c).send_uplink(std::move(p));
  }
  sys.run_until(Time::sec(2));
  // Every distinct packet arrives exactly once, although several APs
  // forwarded copies.
  EXPECT_EQ(uplinks, 20);
  EXPECT_GT(sys.controller().stats().uplink_duplicates_dropped, 0u);
}

TEST(WgttSystemTest, SameSeedReproducesExactly) {
  auto run_once = [](std::uint64_t seed) {
    WgttSystemConfig cfg;
    cfg.geometry.seed = seed;
    WgttSystem sys(cfg);
    mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(25.0));
    const int c = sys.add_client(&drive);
    sys.start();
    std::uint64_t bytes = 0;
    sys.client(c).on_downlink = [&](const net::Packet& p) {
      bytes += p.payload_bytes;
    };
    transport::UdpSource src(
        sys.sched(),
        [&](net::Packet p) {
          p.client = ClientId{0};
          sys.server_send(std::move(p));
        },
        {.rate_mbps = 12.0, .client = ClientId{0}});
    src.start();
    sys.run_until(Time::sec(5));
    return std::make_pair(bytes, sys.controller().stats().switches_completed);
  };
  net::reset_packet_uids();
  const auto a = run_once(99);
  net::reset_packet_uids();
  const auto b = run_once(99);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  net::reset_packet_uids();
  const auto c = run_once(100);
  EXPECT_NE(a.first, c.first);  // different world, different outcome
}

TEST(WgttSystemTest, ServingApReportedAndChanges) {
  WgttSystemConfig cfg;
  cfg.geometry.seed = 24;
  WgttSystem sys(cfg);
  mobility::LineDrive drive(0.0, 0.0, mph_to_mps(25.0));
  const int c = sys.add_client(&drive);
  sys.start();
  EXPECT_EQ(sys.serving_ap(c), -1);  // before bootstrap
  std::vector<int> timeline;
  sys.controller().on_serving_changed = [&](ClientId, net::ApId ap, Time) {
    timeline.push_back(static_cast<int>(net::index_of(ap)));
  };
  sys.run_until(Time::sec(10));
  EXPECT_GE(timeline.size(), 3u);
  EXPECT_NE(sys.serving_ap(c), -1);
  // The serving AP trends forward along the road overall.
  EXPECT_GT(timeline.back(), timeline.front());
}

// --- payload teardown ---------------------------------------------------------
// Destroying a system mid-drive frees every downlink payload still in flight
// on the backhaul or parked in a cyclic queue. Each system declares its pool
// before its backhaul, so those references drop into a live pool; the asan
// preset catches a pool destroyed first.

/// 10 Mb/s of downlink UDP for client 0, through `server_send`.
template <typename System>
transport::UdpSource downlink_source(System& sys) {
  return transport::UdpSource(
      sys.sched(),
      [&sys](net::Packet p) {
        p.client = ClientId{0};
        sys.server_send(std::move(p));
      },
      transport::UdpSource::Config{.rate_mbps = 10.0, .client = ClientId{0}});
}

TEST(PayloadTeardownTest, WgttSystemMidDriveWithDownlinkInFlight) {
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  WgttSystemConfig cfg;
  cfg.geometry.seed = 23;
  WgttSystem sys(cfg);
  sys.add_client(&drive);
  sys.start();
  transport::UdpSource src = downlink_source(sys);
  src.start();
  sys.run_until(Time::sec(3));
  const std::uint64_t sent = sys.backhaul().messages_sent();
  net::Packet p = net::make_packet();
  p.client = ClientId{0};
  sys.controller().send_downlink(p);
  // The fan-out is parked in the backhaul, undelivered, as the system dies.
  EXPECT_GT(sys.backhaul().messages_sent(), sent);
}

TEST(PayloadTeardownTest, BaselineSystemMidDriveWithDownlinkInFlight) {
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  BaselineSystemConfig cfg;
  cfg.geometry.seed = 23;
  BaselineSystem sys(cfg);
  const int c = sys.add_client(&drive);
  sys.start();
  transport::UdpSource src = downlink_source(sys);
  src.start();
  sys.run_until(Time::sec(3));
  ASSERT_GE(sys.serving_ap(c), 0);
  const baseline::Router::Stats before = sys.router().stats();
  net::Packet p = net::make_packet();
  p.client = ClientId{0};
  sys.router().send_downlink(p);
  // Sent toward the associated AP and parked in the backhaul as it dies.
  EXPECT_EQ(sys.router().stats().downlink_packets, before.downlink_packets + 1);
  EXPECT_EQ(sys.router().stats().downlink_dropped_unassociated,
            before.downlink_dropped_unassociated);
}

}  // namespace
}  // namespace wgtt::scenario
