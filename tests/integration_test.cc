// Cross-system integration tests: WGTT vs the Enhanced 802.11r baseline
// over identical radio worlds, TCP over the full stack, and ablations of
// WGTT's mechanisms (block-ACK forwarding).
#include <gtest/gtest.h>

#include "mobility/trajectory.h"
#include "scenario/baseline_system.h"
#include "scenario/wgtt_system.h"
#include "transport/tcp.h"
#include "transport/udp.h"

namespace wgtt {
namespace {

using net::ClientId;

double run_wgtt_udp(std::uint64_t seed, double mph, double rate_mbps,
                    bool ba_forwarding = true) {
  net::reset_packet_uids();
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = seed;
  scenario::WgttSystem sys(cfg);
  mobility::LineDrive drive(-15.0, 0.0, mph_to_mps(mph));
  const int c = sys.add_client(&drive);
  sys.start();
  if (!ba_forwarding) {
    for (int i = 0; i < sys.num_aps(); ++i) sys.ap(i).set_ba_forwarding(false);
  }
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
      {.rate_mbps = rate_mbps, .client = ClientId{0}});
  src.start();
  const Time t0 = drive.time_at_x(0.0);
  const Time t1 = drive.time_at_x(52.5);
  sys.run_until(t1);
  return sink.throughput().average_mbps(t0, t1);
}

double run_baseline_udp(std::uint64_t seed, double mph, double rate_mbps) {
  net::reset_packet_uids();
  scenario::BaselineSystemConfig cfg;
  cfg.geometry.seed = seed;
  scenario::BaselineSystem sys(cfg);
  mobility::LineDrive drive(-15.0, 0.0, mph_to_mps(mph));
  const int c = sys.add_client(&drive);
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
      {.rate_mbps = rate_mbps, .client = ClientId{0}});
  src.start();
  const Time t0 = drive.time_at_x(0.0);
  const Time t1 = drive.time_at_x(52.5);
  sys.run_until(t1);
  return sink.throughput().average_mbps(t0, t1);
}

TEST(WgttVsBaseline, WgttWinsAtDrivingSpeed) {
  // The headline claim, at one seed and 25 mph: WGTT beats the baseline by
  // a clear factor (paper: 2.6-4.0x for UDP).
  const double wgtt = run_wgtt_udp(5, 25.0, 30.0);
  const double base = run_baseline_udp(5, 25.0, 30.0);
  EXPECT_GT(wgtt, 1.8 * base);
  EXPECT_GT(wgtt, 5.0);  // sanity: WGTT itself is healthy
}

TEST(WgttVsBaseline, GapGrowsWithSpeed) {
  const double wgtt_fast = run_wgtt_udp(6, 35.0, 30.0);
  const double base_fast = run_baseline_udp(6, 35.0, 30.0);
  const double base_slow = run_baseline_udp(6, 5.0, 30.0);
  // The baseline collapses with speed; WGTT stays serviceable.
  EXPECT_GT(base_slow, base_fast * 1.5);
  EXPECT_GT(wgtt_fast, base_fast * 2.0);
}

TEST(WgttTcp, BulkTcpFlowsOverFullStack) {
  net::reset_packet_uids();
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 31;
  scenario::WgttSystem sys(cfg);
  mobility::LineDrive drive(-15.0, 0.0, mph_to_mps(15.0));
  const int c = sys.add_client(&drive);
  sys.start();

  transport::TcpSender::Config scfg;
  scfg.client = ClientId{0};
  transport::TcpSender sender(
      sys.sched(),
      [&](net::Packet p) { sys.server_send(std::move(p)); }, scfg);
  transport::TcpReceiver::Config rcfg;
  rcfg.client = ClientId{0};
  transport::TcpReceiver receiver(
      sys.sched(),
      [&](net::Packet p) { sys.client(c).send_uplink(std::move(p)); }, rcfg);
  sys.client(c).on_downlink = [&](const net::Packet& p) {
    receiver.on_data_packet(p);
  };
  sys.on_server_uplink = [&](const net::Packet& p) { sender.on_ack_packet(p); };
  sender.set_unlimited(true);

  const Time horizon = drive.time_at_x(52.5);
  sys.run_until(horizon);
  const double mbps = static_cast<double>(receiver.bytes_delivered()) * 8.0 /
                      1e6 / horizon.to_seconds();
  EXPECT_GT(mbps, 3.0);  // bulk TCP survives the whole drive
  EXPECT_TRUE(sender.alive());
}

TEST(Ablation, BlockAckForwardingReducesRetransmissions) {
  // Same world, BA forwarding on vs off: forwarding recovers BAs the
  // serving AP missed, so fewer MPDUs are retransmitted.
  auto retx_with = [](bool fwd) {
    net::reset_packet_uids();
    scenario::WgttSystemConfig cfg;
    cfg.geometry.seed = 41;
    scenario::WgttSystem sys(cfg);
    mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
    const int c = sys.add_client(&drive);
    sys.start();
    for (int i = 0; i < sys.num_aps(); ++i) sys.ap(i).set_ba_forwarding(fwd);
    sys.client(c).on_downlink = [](const net::Packet&) {};
    transport::UdpSource src(
        sys.sched(),
        [&](net::Packet p) {
          p.client = ClientId{0};
          sys.server_send(std::move(p));
        },
        {.rate_mbps = 25.0, .client = ClientId{0}});
    src.start();
    sys.run_until(Time::sec(9));
    std::uint64_t retx = 0;
    std::uint64_t delivered = 0;
    std::uint64_t via_fwd = 0;
    for (int i = 0; i < sys.num_aps(); ++i) {
      const auto& s = sys.ap(i).mac().stats();
      retx += s.retransmissions;
      delivered += s.mpdus_delivered;
      via_fwd += s.mpdus_delivered_via_forwarded_ba;
    }
    struct R {
      double retx_per_delivered;
      std::uint64_t via_fwd;
    };
    return R{static_cast<double>(retx) / std::max<std::uint64_t>(delivered, 1),
             via_fwd};
  };
  const auto with = retx_with(true);
  const auto without = retx_with(false);
  // The mechanism fires (MPDUs complete via forwarded BAs) and never makes
  // retransmissions worse. The absolute saving is small in this channel
  // model — the serving AP, being well-chosen, decodes most BAs itself —
  // so we assert direction-with-tolerance, not magnitude (see
  // EXPERIMENTS.md for the measured effect size).
  EXPECT_GT(with.via_fwd, 0u);
  EXPECT_LT(with.retx_per_delivered, without.retx_per_delivered * 1.03);
}

TEST(PairedWorlds, SameSeedSameGeometryAcrossSystems) {
  // WGTT and baseline systems built from the same seed share the same
  // large-scale radio world (paired comparison).
  scenario::WgttSystemConfig wcfg;
  wcfg.geometry.seed = 55;
  scenario::WgttSystem wgtt(wcfg);
  scenario::BaselineSystemConfig bcfg;
  bcfg.geometry.seed = 55;
  scenario::BaselineSystem base(bcfg);
  mobility::StaticPosition pos({20.0, 0.0});
  wgtt.add_client(&pos);
  base.add_client(&pos);
  for (int ap = 0; ap < 8; ++ap) {
    EXPECT_DOUBLE_EQ(wgtt.geometry().link(ap, 0).large_scale_snr_db({20.0, 0.0}),
                     base.geometry().link(ap, 0).large_scale_snr_db({20.0, 0.0}));
  }
}

}  // namespace
}  // namespace wgtt
