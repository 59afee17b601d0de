// Multi-controller domains (DESIGN.md §12): the AP-array partition, the
// inter-domain handover handshake (state transfer, retry/backoff, abort-to-
// source), boundary flap damping, and controller crash/failover — a dead
// domain's APs and clients are adopted by the nearest surviving neighbor
// and the multi-domain invariants (exactly one owner, no orphans, zero
// index regressions) hold throughout.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/domain_map.h"
#include "core/spatial_index.h"
#include "mobility/trajectory.h"
#include "net/messages.h"
#include "scenario/wgtt_system.h"
#include "transport/udp.h"

namespace wgtt {
namespace {

// Oscillates across a point on the road: triangle wave of half-span
// `amp_m` around `center_x` with the given period. The deterministic
// boundary-flapper for the penalty-damping tests.
class PingPongDrive final : public mobility::Trajectory {
 public:
  PingPongDrive(double center_x, double lane_y, double amp_m, Time period)
      : center_x_(center_x), lane_y_(lane_y), amp_m_(amp_m), period_(period) {}

  [[nodiscard]] channel::Vec2 position(Time t) const override {
    const double phase =
        std::fmod(t.to_millis(), period_.to_millis()) / period_.to_millis();
    const double tri =
        phase < 0.5 ? 4.0 * phase - 1.0 : 3.0 - 4.0 * phase;  // [-1, 1]
    return {center_x_ + amp_m_ * tri, lane_y_};
  }
  [[nodiscard]] double speed_mps(Time) const override {
    return 4.0 * amp_m_ / (period_.to_millis() / 1e3);
  }

 private:
  double center_x_;
  double lane_y_;
  double amp_m_;
  Time period_;
};

void attach_traffic(scenario::WgttSystem& sys, int c, double rate_mbps,
                    transport::UdpSink& sink,
                    std::vector<std::unique_ptr<transport::UdpSource>>& srcs) {
  sys.client(c).on_downlink = [&sink, &sys](const net::Packet& p) {
    sink.on_packet(sys.now(), p);
  };
  srcs.push_back(std::make_unique<transport::UdpSource>(
      sys.sched(),
      [&sys, c](net::Packet p) {
        p.client = net::ClientId{static_cast<std::uint32_t>(c)};
        sys.server_send(std::move(p));
      },
      transport::UdpSource::Config{
          .rate_mbps = rate_mbps,
          .client = net::ClientId{static_cast<std::uint32_t>(c)}}));
  srcs.back()->start();
}

// --- the partition ------------------------------------------------------------

TEST(DomainMapTest, EvenSplitCoversContiguously) {
  core::DomainMap map;
  map.build(8, 3);
  EXPECT_EQ(map.num_domains(), 3u);
  EXPECT_EQ(map.num_aps(), 8u);
  // Remainder goes to the leading domains: 3 / 3 / 2.
  EXPECT_EQ(map.first_ap(0), 0u);
  EXPECT_EQ(map.last_ap(0), 3u);
  EXPECT_EQ(map.last_ap(1), 6u);
  EXPECT_EQ(map.last_ap(2), 8u);
  for (std::uint32_t a = 0; a < 8; ++a) {
    const std::uint32_t d = map.domain_of_ap(net::ApId{a});
    EXPECT_GE(a, map.first_ap(d));
    EXPECT_LT(a, map.last_ap(d));
  }
}

TEST(DomainMapTest, SegmentAlignedCutsNeverStraddleSegments) {
  // 12 APs at 7.5 m over 30 m cells: segments hold APs {0-3},{4-7},{8-11}.
  core::SpatialIndex index;
  std::vector<double> xs;
  for (int i = 0; i < 12; ++i) xs.push_back(7.5 * i);
  index.build(std::move(xs), 30.0);
  core::DomainMap map;
  map.build(index, 3);
  ASSERT_EQ(map.num_domains(), 3u);
  for (std::uint32_t d = 0; d + 1 < map.num_domains(); ++d) {
    const std::uint32_t cut = map.last_ap(d);
    // The AP just before the cut and the AP at the cut are in different
    // road segments — the cut landed on a segment boundary.
    EXPECT_NE(index.segment_of_ap(static_cast<int>(cut - 1)),
              index.segment_of_ap(static_cast<int>(cut)));
  }
}

TEST(DomainMapTest, NearestAliveBreaksTiesLow) {
  core::DomainMap map;
  map.build(10, 5);
  // Domain 2 dead, 1 and 3 equidistant: everyone must agree on 1.
  EXPECT_EQ(map.nearest_alive(2, {true, true, false, true, true}), 1u);
  // Only a far neighbor left.
  EXPECT_EQ(map.nearest_alive(0, {false, false, false, false, true}), 4u);
  // Nobody alive: sentinel.
  EXPECT_EQ(map.nearest_alive(1, {false, false, false, false, false}), 5u);
}

// Tick-exact PenaltyTimers unit tests live in core_test.cc; here the timers
// are exercised end to end through the flap and abort scenarios below.

// --- inter-domain handover ----------------------------------------------------

TEST(InterDomainHandover, ClientCrossingBoundaryIsHandedOver) {
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 1101;
  cfg.num_domains = 2;
  scenario::WgttSystem sys(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  const int c = sys.add_client(&drive);
  sys.start();
  transport::UdpSink sink;
  std::vector<std::unique_ptr<transport::UdpSource>> srcs;
  attach_traffic(sys, c, 12.0, sink, srcs);
  sys.run_until(Time::sec(9));

  // The client started in domain 0's stretch and ended in domain 1's; its
  // ownership followed it across the boundary via the handshake.
  EXPECT_GE(sys.controller(0).stats().handover_requests, 1u);
  EXPECT_GE(sys.controller(0).stats().handovers_out, 1u);
  EXPECT_GE(sys.controller(1).stats().handovers_in, 1u);
  EXPECT_EQ(sys.owner_domain(c), 1);
  EXPECT_TRUE(sys.controller(1).owns_client(net::ClientId{0}));
  EXPECT_FALSE(sys.controller(0).owns_client(net::ClientId{0}));
  // The serving AP kept following the car into the second domain.
  EXPECT_GE(sys.serving_ap(c), 4);
  // Cross-domain measurement flow existed before the handover: the foreign
  // APs' CSI was relayed to the owner.
  EXPECT_GT(sys.controller(0).stats().csi_forwarded +
                sys.controller(1).stats().csi_forwarded,
            0u);
  // The data plane never stalled.
  EXPECT_GT(sink.throughput().average_mbps(Time::sec(2), Time::sec(9)), 4.0);
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_EQ(report.index_regressions, 0u);
}

TEST(InterDomainHandover, HandshakeSurvivesMessageLoss) {
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 1102;
  cfg.num_domains = 2;
  // One in three handshake messages vanish: the per-message timeout/backoff
  // retry chain must still land the transfer.
  cfg.backhaul.fault(net::MsgKind::kHandoverRequest).loss_rate = 0.3;
  cfg.backhaul.fault(net::MsgKind::kHandoverAck).loss_rate = 0.3;
  scenario::WgttSystem sys(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  const int c = sys.add_client(&drive);
  sys.start();
  transport::UdpSink sink;
  std::vector<std::unique_ptr<transport::UdpSource>> srcs;
  attach_traffic(sys, c, 12.0, sink, srcs);
  sys.run_until(Time::sec(9));

  EXPECT_GE(sys.controller(1).stats().handovers_in, 1u);
  EXPECT_EQ(sys.owner_domain(c), 1);
  EXPECT_GT(sink.throughput().average_mbps(Time::sec(2), Time::sec(9)), 4.0);
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST(InterDomainHandover, AbortsToSourceWhenTargetNeverAnswers) {
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 1103;
  cfg.num_domains = 2;
  // Every handover request vanishes while heartbeats and gossip still flow:
  // the target looks alive but the handshake can never complete. The
  // bounded retry budget must abort back to the source, arm the penalty,
  // and keep serving the client from the source domain.
  cfg.backhaul.fault(net::MsgKind::kHandoverRequest).loss_rate = 1.0;
  scenario::WgttSystem sys(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  const int c = sys.add_client(&drive);
  sys.start();
  transport::UdpSink sink;
  std::vector<std::unique_ptr<transport::UdpSource>> srcs;
  attach_traffic(sys, c, 12.0, sink, srcs);
  sys.run_until(Time::sec(9));

  const auto& s0 = sys.controller(0).stats();
  EXPECT_GE(s0.handover_requests, 1u);
  EXPECT_GT(s0.handover_retries, 0u);
  EXPECT_GE(s0.handover_aborts, 1u);
  EXPECT_EQ(s0.handovers_out, 0u);
  // After an abort the penalty bars immediate re-attempts toward the target.
  EXPECT_GT(s0.penalty_blocked, 0u);
  // Ownership never moved; the source keeps driving the client (through
  // its own stretch — foreign APs are unreachable targets, so service
  // degrades but never wedges).
  EXPECT_EQ(sys.owner_domain(c), 0);
  EXPECT_GT(sink.throughput().average_mbps(Time::sec(2), Time::sec(9)), 1.0);
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST(BoundaryFlap, PenaltyTimersDampPingPong) {
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 1104;
  cfg.num_domains = 2;
  cfg.controller.domains.penalty_window = Time::ms(2000);
  scenario::WgttSystem sys(cfg);
  // Flap hard across the domain cut (AP 3 at x=22.5 / AP 4 at x=30): a
  // full crossing every 400 ms, ~20 boundary crossings over the run.
  PingPongDrive flapper(26.25, 0.0, 7.0, Time::ms(800));
  const int c = sys.add_client(&flapper);
  sys.start();
  transport::UdpSink sink;
  std::vector<std::unique_ptr<transport::UdpSource>> srcs;
  attach_traffic(sys, c, 8.0, sink, srcs);
  sys.run_until(Time::sec(8));

  const auto& s0 = sys.controller(0).stats();
  const auto& s1 = sys.controller(1).stats();
  const auto handovers = s0.handovers_out + s1.handovers_out;
  // The client oscillates ~10 full periods, but the per-(client, target)
  // penalty bars a hand-back within 2 s of the last transfer: at most one
  // domain switch per penalty window (plus the very first).
  EXPECT_LE(handovers, 8u / 2u + 1u);
  // The damping actually engaged: attempts were blocked by the bar.
  EXPECT_GT(s0.penalty_blocked + s1.penalty_blocked, 0u);
  EXPECT_GT(sink.throughput().average_mbps(Time::sec(2), Time::sec(8)), 1.0);
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

// --- controller crash / failover ----------------------------------------------

TEST(ControllerFailover, NeighborAdoptsDeadDomain) {
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 1105;
  cfg.num_domains = 2;
  cfg.controller_faults.push_back({.domain = 1, .crash_at = Time::sec(4)});
  scenario::WgttSystem sys(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  const int c = sys.add_client(&drive);
  sys.start();
  transport::UdpSink sink;
  std::vector<std::unique_ptr<transport::UdpSource>> srcs;
  attach_traffic(sys, c, 12.0, sink, srcs);
  // By t=4 s the car (~6.7 m/s from x=-10) is around x=17, still domain 0;
  // it crosses into domain 1's stretch while domain 1 is a corpse.
  sys.run_until(Time::sec(9));

  const auto& s0 = sys.controller(0).stats();
  EXPECT_GE(s0.peers_marked_dead, 1u);
  // Domain 0 adopted the dead domain's whole AP stretch...
  EXPECT_EQ(s0.aps_adopted, 4u);
  for (int a = 4; a < 8; ++a) {
    EXPECT_EQ(sys.ap(a).controller_node().index, 0u) << "AP " << a;
  }
  // ...and kept the client served across what is now an intra-controller
  // switch into the adopted stretch.
  EXPECT_TRUE(sys.controller(0).owns_client(net::ClientId{0}));
  EXPECT_EQ(sys.owner_domain(c), 0);
  EXPECT_GE(sys.serving_ap(c), 4);
  EXPECT_GT(sink.throughput().average_mbps(Time::sec(5), Time::sec(9)), 2.0);
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_EQ(report.orphaned_clients, 0);
  EXPECT_EQ(report.index_regressions, 0u);
}

TEST(ControllerFailover, OwnerCrashAdoptsFromGossipedWatermark) {
  // The client is already owned and served INSIDE domain 1 when its
  // controller dies: domain 0 must adopt from the last-gossiped state
  // without disturbing the surviving data plane.
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 1106;
  cfg.num_domains = 2;
  cfg.controller_faults.push_back({.domain = 1, .crash_at = Time::sec(3)});
  scenario::WgttSystem sys(cfg);
  mobility::StaticPosition pos({41.0, 0.0});  // deep in domain 1
  const int c = sys.add_client(&pos);
  sys.start();
  transport::UdpSink sink;
  std::vector<std::unique_ptr<transport::UdpSource>> srcs;
  attach_traffic(sys, c, 12.0, sink, srcs);
  sys.run_until(Time::sec(8));

  const auto& s0 = sys.controller(0).stats();
  EXPECT_GE(s0.clients_adopted, 1u);
  EXPECT_TRUE(sys.controller(0).owns_client(net::ClientId{0}));
  // Goodput degrades gracefully across the crash, not to zero.
  EXPECT_GT(sink.throughput().average_mbps(Time::sec(4), Time::sec(8)), 2.0);
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_EQ(report.orphaned_clients, 0);
}

TEST(ControllerFailover, RestartReturnsHomeStretch) {
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 1107;
  cfg.num_domains = 2;
  cfg.controller_faults.push_back(
      {.domain = 1, .crash_at = Time::sec(2), .restart_at = Time::sec(4)});
  scenario::WgttSystem sys(cfg);
  mobility::StaticPosition pos({41.0, 0.0});
  const int c = sys.add_client(&pos);
  sys.start();
  transport::UdpSink sink;
  std::vector<std::unique_ptr<transport::UdpSource>> srcs;
  attach_traffic(sys, c, 12.0, sink, srcs);
  sys.run_until(Time::sec(8));

  const auto& s0 = sys.controller(0).stats();
  EXPECT_GE(s0.peers_recovered, 1u);
  EXPECT_EQ(s0.aps_adopted, 4u);
  EXPECT_EQ(s0.aps_returned, 4u);
  // The home stretch went back to the restarted controller.
  for (int a = 4; a < 8; ++a) {
    EXPECT_EQ(sys.ap(a).controller_node().index, 1u) << "AP " << a;
  }
  EXPECT_GT(sink.throughput().average_mbps(Time::sec(5), Time::sec(8)), 2.0);
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_EQ(report.orphaned_clients, 0);
}

TEST(ControllerFailover, DegradedWithEveryControllerDownThenRecovers) {
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 1108;
  cfg.num_domains = 2;
  cfg.controller_faults.push_back({.domain = 0, .crash_at = Time::sec(2)});
  cfg.controller_faults.push_back(
      {.domain = 1, .crash_at = Time::sec(2), .restart_at = Time::sec(4)});
  scenario::WgttSystem sys(cfg);
  mobility::StaticPosition pos({11.0, 0.0});  // domain 0's stretch
  const int c = sys.add_client(&pos);
  sys.start();
  transport::UdpSink sink;
  std::vector<std::unique_ptr<transport::UdpSource>> srcs;
  attach_traffic(sys, c, 8.0, sink, srcs);
  // [2 s, 4 s): no controller alive anywhere — degraded mode, nobody to
  // adopt anything, and the invariant checker must not cry wolf about it.
  sys.run_until(Time::sec(3));
  EXPECT_TRUE(sys.check_invariants().ok());
  // Domain 1 comes back alone, finds domain 0 dead, and adopts everything.
  sys.run_until(Time::sec(8));
  const auto& s1 = sys.controller(1).stats();
  EXPECT_GE(s1.aps_adopted, 4u);
  EXPECT_TRUE(sys.controller(1).owns_client(net::ClientId{0}));
  EXPECT_GT(sink.throughput().average_mbps(Time::sec(5), Time::sec(8)), 1.0);
  const auto report = sys.check_invariants();
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_EQ(report.orphaned_clients, 0);
}

TEST(ControllerFailover, PeerDeathFollowsTheHeartbeatKnobs) {
  // Peers run the AP heartbeat machine and read its knobs: with a 10 ms
  // interval and 2 misses, a crashed peer is declared dead within
  // (2 + 1) intervals of the crash.
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 1109;
  cfg.num_domains = 2;
  cfg.controller.heartbeat_interval = Time::ms(10);
  cfg.controller.heartbeat_miss_threshold = 2;
  cfg.controller_faults.push_back({.domain = 1, .crash_at = Time::sec(2)});
  scenario::WgttSystem sys(cfg);
  sys.start();
  sys.run_until(Time::sec(3));

  const core::Controller& c0 = sys.controller(0);
  EXPECT_EQ(c0.stats().peers_marked_dead, 1u);
  EXPECT_FALSE(c0.peer_alive(1));
  const auto dead_at = c0.last_peer_transition();
  ASSERT_TRUE(dead_at.has_value());
  const double detect_ms = (*dead_at - Time::sec(2)).to_millis();
  EXPECT_GE(detect_ms, 0.0);
  EXPECT_LE(detect_ms, 10.0 * (2 + 1));
}

// --- the acceptance sweep: loss x crashes x seeds -----------------------------

TEST(DomainSweep, InvariantsHoldUnderLossAndCrashes) {
  for (const double loss : {0.0, 0.05, 0.2}) {
    for (std::uint64_t seed = 700; seed < 705; ++seed) {
      scenario::WgttSystemConfig cfg;
      cfg.geometry.seed = seed;
      cfg.num_domains = 2;
      for (const auto kind :
           {net::MsgKind::kCsiForward, net::MsgKind::kUplinkForward,
            net::MsgKind::kDownlinkForward, net::MsgKind::kHandoverRequest,
            net::MsgKind::kHandoverAck, net::MsgKind::kDomainHeartbeat,
            net::MsgKind::kDomainHeartbeatAck, net::MsgKind::kDomainSync}) {
        cfg.backhaul.fault(kind).loss_rate = loss;
      }
      cfg.controller_faults.push_back(
          {.domain = 1, .crash_at = Time::sec(3), .restart_at = Time::sec(5)});
      scenario::WgttSystem sys(cfg);
      mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(20.0));
      const int c = sys.add_client(&drive);
      sys.start();
      transport::UdpSink sink;
      std::vector<std::unique_ptr<transport::UdpSource>> srcs;
      attach_traffic(sys, c, 8.0, sink, srcs);
      sys.run_until(Time::sec(8));
      const auto report = sys.check_invariants();
      EXPECT_TRUE(report.ok())
          << "seed " << seed << " loss " << loss << ": "
          << report.violations.front();
      EXPECT_EQ(report.index_regressions, 0u) << "seed " << seed;
      EXPECT_GT(sink.throughput().average_mbps(Time::sec(1), Time::sec(8)),
                0.5)
          << "seed " << seed << " loss " << loss;
    }
  }
}

}  // namespace
}  // namespace wgtt
