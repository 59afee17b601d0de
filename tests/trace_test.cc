// Tests for the event tracer and its analysis queries.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "mobility/trajectory.h"
#include "obs/metrics.h"
#include "scenario/wgtt_system.h"
#include "trace/postmortem.h"
#include "trace/tracer.h"
#include "transport/udp.h"

namespace wgtt::trace {
namespace {

TEST(TracerTest, RecordAndCount) {
  Tracer t;
  t.record({Time::ms(1), EventKind::kFrameTx, -1, 0, -1, 10.0});
  t.record({Time::ms(2), EventKind::kFrameTx, -1, 1, -1, 5.0});
  t.record({Time::ms(3), EventKind::kPacketDelivered, 0, 0, -1, 1400.0});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.count(EventKind::kFrameTx), 2u);
  EXPECT_EQ(t.count(EventKind::kPacketDelivered, 0), 1u);
  EXPECT_EQ(t.count(EventKind::kPacketDelivered, 1), 0u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

TEST(TracerTest, CsvExport) {
  Tracer t;
  t.record({Time::ms(5), EventKind::kSwitchCompleted, 0, 2, -1, 17.5});
  std::ostringstream out;
  t.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("when_s,kind,client,node,aux,value"), std::string::npos);
  EXPECT_NE(csv.find("switch_completed"), std::string::npos);
  EXPECT_NE(csv.find("17.5"), std::string::npos);
}

TEST(TracerTest, ToStringCoversAllKinds) {
  for (int i = 0; i < kNumEventKinds; ++i) {
    const auto kind = static_cast<EventKind>(i);
    const std::string_view name = to_string(kind);
    EXPECT_NE(name, "?") << "EventKind " << i << " missing from to_string";
    const auto parsed = event_kind_from_string(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(event_kind_from_string("no_such_kind").has_value());
  EXPECT_FALSE(event_kind_from_string("").has_value());
}

TEST(TracerTest, CsvRoundTripAllKinds) {
  Tracer t;
  for (int i = 0; i < kNumEventKinds; ++i) {
    t.record({Time::ms(i), static_cast<EventKind>(i), i, i + 1, -1,
              static_cast<double>(i) * 1.5});
  }
  std::ostringstream out;
  t.write_csv(out);
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);  // header
  EXPECT_EQ(line, "when_s,kind,client,node,aux,value");
  int rows = 0;
  while (std::getline(in, line)) {
    // kind is the second CSV column; every row's must parse back.
    const auto a = line.find(',');
    const auto b = line.find(',', a + 1);
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(b, std::string::npos);
    const std::string kind_name = line.substr(a + 1, b - a - 1);
    const auto parsed = event_kind_from_string(kind_name);
    ASSERT_TRUE(parsed.has_value()) << kind_name;
    EXPECT_EQ(*parsed, static_cast<EventKind>(rows));
    ++rows;
  }
  EXPECT_EQ(rows, kNumEventKinds);
}

TEST(TracerTest, BoundedCapacityDropsOldest) {
  Tracer t(8);
  EXPECT_EQ(t.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    t.record({Time::ms(i), EventKind::kFrameTx, -1, i, -1, 0.0});
  }
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.dropped(), 12u);
  // Oldest retained event is #12; newest is #19.
  EXPECT_EQ(t.event(0).node, 12);
  EXPECT_EQ(t.event(7).node, 19);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerAttachTest, CapturesLiveSystem) {
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 91;
  scenario::WgttSystem system(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(25.0));
  const int c = system.add_client(&drive);
  system.start();

  // A user handler installed before attach must keep firing (chaining).
  int user_deliveries = 0;
  system.client(c).on_downlink = [&](const net::Packet&) { ++user_deliveries; };

  Tracer tracer;
  attach(tracer, system);

  transport::UdpSource src(
      system.sched(),
      [&](net::Packet p) {
        p.client = net::ClientId{0};
        system.server_send(std::move(p));
      },
      {.rate_mbps = 12.0, .client = net::ClientId{0}});
  src.start();
  system.run_until(Time::sec(5));

  EXPECT_GT(tracer.count(trace::EventKind::kPacketDelivered, 0), 100u);
  EXPECT_GT(tracer.count(trace::EventKind::kFrameTx), 50u);
  EXPECT_GT(tracer.count(trace::EventKind::kSwitchCompleted, 0), 2u);
  EXPECT_EQ(user_deliveries,
            static_cast<int>(tracer.count(trace::EventKind::kPacketDelivered, 0)));
}

// Every domain's controller is hooked: on a 2-domain drive the tracer's
// switch events account for the switches of both controllers, not for
// domain 0's alone.
TEST(TracerAttachTest, CapturesEveryDomainsSwitches) {
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 3;
  cfg.num_domains = 2;
  scenario::WgttSystem system(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(25.0));
  const int c = system.add_client(&drive);
  system.start();

  Tracer tracer;
  attach(tracer, system);

  transport::UdpSource src(
      system.sched(),
      [&](net::Packet p) {
        p.client = net::ClientId{static_cast<unsigned>(c)};
        system.server_send(std::move(p));
      },
      {.rate_mbps = 10.0, .client = net::ClientId{static_cast<unsigned>(c)}});
  src.start();
  system.run_until(Time::sec(6));

  std::uint64_t initiated = 0;
  std::uint64_t completed = 0;
  for (int d = 0; d < system.num_domains(); ++d) {
    initiated += system.controller(d).stats().switches_initiated;
    completed += system.controller(d).stats().switches_completed;
  }
  // The client crossed into domain 1, whose controller switched it too.
  EXPECT_GT(system.controller(1).stats().switches_completed, 0u);
  EXPECT_EQ(tracer.count(EventKind::kSwitchInitiated), initiated);
  EXPECT_EQ(tracer.count(EventKind::kSwitchCompleted), completed);
}

TEST(PostmortemTest, WritesFullBundleOnViolation) {
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 17;
  obs::MetricsRegistry metrics;  // outlives the system (folds on teardown)
  scenario::WgttSystem system(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(25.0));
  const int c = system.add_client(&drive);
  system.start();

  system.enable_metrics(metrics, Time::ms(100));
  Tracer tracer;
  attach(tracer, system);

  transport::UdpSource src(
      system.sched(),
      [&](net::Packet p) {
        p.client = net::ClientId{0};
        system.server_send(std::move(p));
      },
      {.rate_mbps = 12.0, .client = net::ClientId{static_cast<unsigned>(c)}});
  src.start();
  system.run_until(Time::sec(3));

  // Fabricate a report (the real trigger path is check_invariants; the
  // bundle writer only cares that it is non-ok).
  scenario::InvariantReport report;
  report.stalled_switches = 1;
  report.violations.push_back("client 0: switch pending for 999 ms");

  const std::string dir =
      ::testing::TempDir() + "wgtt_postmortem_bundle_test";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(write_postmortem(dir, system, report, &tracer, &metrics));

  for (const char* name : {"invariants.txt", "trace_tail.csv", "metrics.json",
                           "liveness.txt", "clients.txt"}) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + name)) << name;
  }
  const auto slurp = [&](const char* name) {
    std::ifstream in(dir + "/" + name);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_NE(slurp("invariants.txt").find("switch pending for 999 ms"),
            std::string::npos);
  EXPECT_NE(slurp("trace_tail.csv").find("when_s,kind,client,node,aux,value"),
            std::string::npos);
  EXPECT_NE(slurp("metrics.json").find("wgtt.metrics.v1"), std::string::npos);
  EXPECT_NE(slurp("clients.txt").find("client 0"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(PostmortemTest, MultiDomainBundleReadsOwningController) {
  // domain_test's boundary crossing: domain 1 ends up owning the client and
  // serving it, while domain 0 has released it. The bundle must report the
  // owner's view, the one check_invariants judges.
  scenario::WgttSystemConfig cfg;
  cfg.geometry.seed = 1101;
  cfg.num_domains = 2;
  scenario::WgttSystem system(cfg);
  mobility::LineDrive drive(-10.0, 0.0, mph_to_mps(15.0));
  const int c = system.add_client(&drive);
  system.start();
  transport::UdpSource src(
      system.sched(),
      [&](net::Packet p) {
        p.client = net::ClientId{0};
        system.server_send(std::move(p));
      },
      {.rate_mbps = 12.0, .client = net::ClientId{static_cast<unsigned>(c)}});
  src.start();
  system.run_until(Time::sec(9));
  ASSERT_EQ(system.owner_domain(c), 1);
  const int serving = system.serving_ap(c);
  ASSERT_GE(serving, 0);

  const std::string dir =
      ::testing::TempDir() + "wgtt_postmortem_domains_test";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(write_postmortem(dir, system, scenario::InvariantReport{},
                               nullptr, nullptr));
  std::ifstream in(dir + "/clients.txt");
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("client 0 serving " + std::to_string(serving) + " "),
            std::string::npos)
      << buf.str();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wgtt::trace
