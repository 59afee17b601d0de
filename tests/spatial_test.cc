// Spatial interest management (DESIGN.md §9): the road-segment index's
// candidate sets checked against brute-force oracles on a running system,
// plus the city-scale pieces that ride on it (lazy channel matrix,
// distributed drive pattern). Whole-run byte-identity of the indexed
// engine is pinned by tests/behaviour_lock_test.cc.
#include <gtest/gtest.h>

#include <vector>

#include "bench/harness.h"
#include "core/esnr_tracker.h"
#include "mobility/trajectory.h"
#include "net/ids.h"
#include "scenario/testbed.h"
#include "scenario/wgtt_system.h"

namespace wgtt {
namespace {

using benchx::DriveConfig;
using benchx::DriveResult;
using benchx::Pattern;

TEST(SpatialEquivalenceTest, CandidateSetsMatchBruteForceStepByStep) {
  // One fully wired system, sampled every 50 ms. At each instant the
  // index-bounded answers must equal the brute-force oracles: the optimal
  // AP against TestbedGeometry's all-AP argmax, and the tracker's fan-out
  // set and selection argmax against the same tracker queried with its
  // index detached (an unbounded scan over every link).
  const scenario::WgttSystemConfig cfg;
  scenario::WgttSystem sys(cfg);
  EXPECT_EQ(sys.spatial_index().num_aps(), sys.num_aps());
  const double radius = 2.0 * cfg.medium.sense_range_m + 50.0;

  mobility::LineDrive car0(-15.0, 0.0, 11.0);
  mobility::LineDrive car1(20.0, 0.0, -8.0);
  sys.add_client(&car0);
  sys.add_client(&car1);
  sys.start();

  core::EsnrTracker& tracker = sys.controller().tracker();
  for (Time t = Time::ms(50); t <= Time::sec(3); t += Time::ms(50)) {
    sys.run_until(t);
    for (int c = 0; c < 2; ++c) {
      const net::ClientId id{static_cast<std::uint32_t>(c)};
      EXPECT_EQ(sys.optimal_ap(c, t), sys.geometry().optimal_ap(c, t))
          << "t=" << t.to_millis() << " client " << c;
      const auto fresh = tracker.fresh_aps(id, t, Time::ms(200));
      const auto best = tracker.best_ap(id, t);
      tracker.set_spatial(nullptr, 0.0);
      EXPECT_EQ(fresh, tracker.fresh_aps(id, t, Time::ms(200)))
          << "t=" << t.to_millis() << " client " << c;
      EXPECT_EQ(best, tracker.best_ap(id, t))
          << "t=" << t.to_millis() << " client " << c;
      tracker.set_spatial(&sys.spatial_index(), radius);
    }
  }
  EXPECT_TRUE(sys.check_invariants().ok());
}

TEST(CityScaleTest, LazyLinksDeterministicAndAccessOrderIndependent) {
  // Lazy links draw each (AP, client) channel from a private RNG seeded by
  // (geometry seed, ap, client): the realization must be a pure function of
  // configuration, never of which link was touched first.
  scenario::GeometryConfig cfg;
  cfg.lazy_links = true;
  cfg.seed = 5;
  mobility::StaticPosition parked({20.0, 0.0});

  scenario::TestbedGeometry forward(cfg);
  scenario::TestbedGeometry backward(cfg);
  forward.add_client(&parked);
  backward.add_client(&parked);
  const Time t = Time::ms(100);
  std::vector<double> fwd;
  for (int ap = 0; ap < forward.num_aps(); ++ap) {
    fwd.push_back(forward.esnr_db(ap, 0, t));
  }
  for (int ap = backward.num_aps() - 1; ap >= 0; --ap) {
    EXPECT_EQ(backward.esnr_db(ap, 0, t), fwd[static_cast<std::size_t>(ap)])
        << "ap " << ap << ": realization depended on access order";
  }
  // And on a re-run with the same config, the realization repeats exactly.
  scenario::TestbedGeometry again(cfg);
  again.add_client(&parked);
  for (int ap = 0; ap < again.num_aps(); ++ap) {
    EXPECT_EQ(again.esnr_db(ap, 0, t), fwd[static_cast<std::size_t>(ap)]);
  }
}

TEST(CityScaleTest, DistributedPatternDrivesClean) {
  // Smoke for the city bench's exact knob combination at a CI-sized scale:
  // distributed clients, lazy links, bounded fallback, spatial index on.
  scenario::GeometryConfig geo;
  geo.num_aps = 16;
  geo.lazy_links = true;
  DriveConfig cfg;
  cfg.mph = 15.0;
  cfg.udp_rate_mbps = 4.0;
  cfg.seed = 11;
  cfg.num_clients = 4;
  cfg.pattern = Pattern::kDistributed;
  cfg.drive_span_m = 40.0;
  cfg.bounded_fallback = true;
  cfg.geometry = geo;
  const DriveResult r = benchx::run_drive(cfg);
  EXPECT_EQ(r.invariant_violations, 0u);
  ASSERT_EQ(r.clients.size(), 4u);
  for (std::size_t c = 0; c < r.clients.size(); ++c) {
    EXPECT_GT(r.clients[c].mbps, 0.0) << "client " << c;
  }
  // kDistributed sets the horizon to drive_span / speed, so every client
  // stays in-array for the whole run.
  EXPECT_NEAR(r.duration_s, 40.0 / (15.0 * 0.44704), 0.5);
}

}  // namespace
}  // namespace wgtt
