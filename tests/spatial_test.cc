// Spatial interest management (DESIGN.md §9): the road-segment index's
// optimal AP checked against the brute-force oracle on a running system,
// the bounded fan-out fallback, plus the city-scale pieces that ride on it
// (lazy channel matrix, distributed drive pattern). Whole-run byte-identity
// of the indexed engine is pinned by tests/behaviour_lock_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "mobility/trajectory.h"
#include "scenario/testbed.h"
#include "scenario/wgtt_system.h"
#include "util/rng.h"

namespace wgtt {
namespace {

using benchx::DriveConfig;
using benchx::DriveResult;
using benchx::Pattern;

TEST(SpatialEquivalenceTest, CandidateSetsMatchBruteForceStepByStep) {
  // One fully wired system, sampled every 50 ms. At each instant the
  // index-bounded optimal AP must equal TestbedGeometry's all-AP argmax.
  const scenario::WgttSystemConfig cfg;
  scenario::WgttSystem sys(cfg);
  EXPECT_EQ(sys.spatial_index().num_aps(), sys.num_aps());

  mobility::LineDrive car0(-15.0, 0.0, 11.0);
  mobility::LineDrive car1(20.0, 0.0, -8.0);
  sys.add_client(&car0);
  sys.add_client(&car1);
  sys.start();

  for (Time t = Time::ms(50); t <= Time::sec(3); t += Time::ms(50)) {
    sys.run_until(t);
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(sys.optimal_ap(c, t), sys.geometry().optimal_ap(c, t))
          << "t=" << t.to_millis() << " client " << c;
    }
  }
  EXPECT_TRUE(sys.check_invariants().ok());
}

// Every AP of the 8-AP paper array lies within the fallback radius
// (2 * sense range + 50 m) of any anchor, so the bounded fallback's
// neighbourhood is the whole array in index order — exactly the all-AP
// fallback — and turning the knob on must change nothing. With a 40 m
// lead-in the fallback fires for an anchored client thousands of times per
// drive: packets keep arriving while its last CSI report is over 200 ms old.
TEST(BoundedFallbackTest, PaperDriveNeighbourhoodIsTheWholeArray) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    DriveConfig all_aps;
    all_aps.seed = seed;
    all_aps.lead_in_m = 40.0;
    all_aps.collect_metrics = true;
    DriveConfig bounded = all_aps;
    bounded.bounded_fallback = true;
    const DriveResult a = benchx::run_drive(all_aps);
    const DriveResult b = benchx::run_drive(bounded);
    ASSERT_NE(a.metrics, nullptr);
    ASSERT_NE(b.metrics, nullptr);
    EXPECT_EQ(a.metrics->to_json(), b.metrics->to_json()) << "seed " << seed;
  }
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

// The pruned accuracy probe (DESIGN.md §14) against a full in-range scan,
// every 10 ms on a 128-AP lazy-links drive: eight clients spread along the
// array in both directions.
TEST(CityScaleTest, PrunedProbeMatchesFullScan) {
  scenario::WgttSystemConfig cfg;
  cfg.geometry.num_aps = 128;
  cfg.geometry.lazy_links = true;
  cfg.geometry.seed = 23;
  scenario::WgttSystem sys(cfg);
  std::vector<std::unique_ptr<mobility::LineDrive>> cars;
  for (int c = 0; c < 8; ++c) {
    const double speed = (c % 2 == 0 ? 1.0 : -1.0) * (6.0 + c);
    cars.push_back(std::make_unique<mobility::LineDrive>(20.0 + 115.0 * c, 0.0,
                                                         speed));
    sys.add_client(cars.back().get());
  }
  sys.start();
  // The in-range set WgttSystem uses: sense range plus its 5 m reach margin.
  const double reach = cfg.medium.sense_range_m + 5.0;
  std::vector<int> in_range;
  int compared = 0;
  for (Time t = Time::ms(10); t <= Time::ms(1500); t += Time::ms(10)) {
    sys.run_until(t);
    for (int c = 0; c < sys.num_clients(); ++c) {
      const double x = sys.geometry().client_position(c, t).x;
      in_range.clear();
      sys.spatial_index().neighbors(x, reach, in_range);
      int full = sys.spatial_index().nearest(x);
      double best = -std::numeric_limits<double>::infinity();
      for (const int ap : in_range) {  // ascending index: ties stay lower
        const double e = sys.geometry().esnr_db(ap, c, t);
        if (e > best) {
          best = e;
          full = ap;
        }
      }
      ASSERT_EQ(sys.optimal_ap(c, t), full)
          << "t=" << t.to_millis() << " client " << c;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 150 * 8);
}

// pruned_argmax on tied exact scores: the lower index wins, as in a full
// scan, even when the higher index carries the higher ceiling and is
// evaluated first.
TEST(PrunedArgmaxTest, TiesGoToTheLowerIndex) {
  std::vector<scenario::BoundedCandidate> cands{{50.0, 3}, {45.0, 1}};
  int evaluated = 0;
  auto exact = [&evaluated](int) {
    ++evaluated;
    return 45.0;
  };
  EXPECT_EQ(scenario::pruned_argmax(cands, exact), 1);
  EXPECT_EQ(evaluated, 2);

  // Equal ceilings too: visiting order is by index, the lower one wins.
  cands = {{45.0, 7}, {45.0, 2}, {45.0, 5}};
  EXPECT_EQ(scenario::pruned_argmax(cands, exact), 2);

  // A ceiling strictly below the best exact score is never evaluated.
  cands = {{40.0, 0}, {50.0, 9}};
  evaluated = 0;
  EXPECT_EQ(scenario::pruned_argmax(cands, exact), 9);
  EXPECT_EQ(evaluated, 1);

  cands.clear();
  EXPECT_EQ(scenario::pruned_argmax(cands, exact), -1);
}

// Random candidate sets with coarse (so often tied) exact scores and
// ceilings at or above them: the pruned argmax is the full scan's.
TEST(PrunedArgmaxTest, MatchesFullScanOnRandomTies) {
  Rng rng(31337);
  int evaluations = 0;
  int candidates = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_int(12));
    std::vector<double> score(static_cast<std::size_t>(n));
    std::vector<scenario::BoundedCandidate> cands;
    int full = -1;
    for (int i = 0; i < n; ++i) {
      score[static_cast<std::size_t>(i)] =
          static_cast<double>(rng.uniform_int(5));
      const double ceiling = score[static_cast<std::size_t>(i)] +
                             static_cast<double>(rng.uniform_int(3));
      cands.push_back({ceiling, i});
      if (full < 0 || score[static_cast<std::size_t>(i)] >
                          score[static_cast<std::size_t>(full)]) {
        full = i;
      }
    }
    std::shuffle(cands.begin(), cands.end(), rng);
    const int got = scenario::pruned_argmax(cands, [&](int i) {
      ++evaluations;
      return score[static_cast<std::size_t>(i)];
    });
    ASSERT_EQ(got, full) << "trial " << trial;
    candidates += n;
  }
  EXPECT_LT(evaluations, candidates);
}

}  // namespace
}  // namespace wgtt
