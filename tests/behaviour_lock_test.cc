// Behaviour lock (DESIGN.md §13): committed digests of a canonical scenario
// matrix, so a change to seeded behaviour fails here in any build, not only
// against a second code path inside the same build.
//
// Each row pins two 64-bit FNV-1a hashes of one deterministic run:
//   * snapshot — the whole `wgtt.metrics.v1` JSON snapshot;
//   * delivery — the delivery record: the raw bits of every client's byte
//     count, accuracy and association timeline plus every switch's
//     protocol time (for the parallel city: per-client Mbps and switches).
//
// A mismatch prints the exact replacement row. Paste it into kLockTable
// only in a change that alters the model on purpose, and say why in
// CHANGES.md; there is no update flag.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/harness.h"
#include "scenario/parallel_city.h"
#include "scenario/wgtt_system.h"
#include "util/units.h"

namespace wgtt {
namespace {

struct LockRow {
  std::string_view name;
  std::uint64_t snapshot;
  std::uint64_t delivery;
};

// clang-format off
constexpr LockRow kLockTable[] = {
    {"paper_udp", 0x8432ebc22d6b332bULL, 0xb031c9cecd99b48aULL},
    {"paper_tcp", 0x6e1e88fe20c84607ULL, 0xed1ba7d301cb6e50ULL},
    {"paper_uplink", 0xb7ef18ceda988449ULL, 0xba83392978b87c22ULL},
    {"convoy_4", 0x844ef2d415d5d2b8ULL, 0x382920f52606a48eULL},
    {"ap_crash_zombie", 0x01919c986a974403ULL, 0xd17d80f46b72565eULL},
    {"control_loss_5pct", 0xb6ac2f710e521b4eULL, 0xbe421e02c158183cULL},
    {"backhaul_40_batched", 0xd4e6b1b185ff3367ULL, 0x14fabe250348d6dbULL},
    {"domains_2_ctrl_crash", 0x7e3fd7dba7f353d8ULL, 0xf874bdd852e7700cULL},
    {"domains_2_ap_ctrl_faults", 0xd69dc169c90afcbbULL, 0x2c18ca53bc2d81f3ULL},
    {"city_256x8", 0x7c69713fe81cd9c4ULL, 0x1a6438c2b9b5f5c9ULL},
    {"parallel_city", 0xf670bc278180d5bfULL, 0x1908bd32b3b7ac0fULL},
};
// clang-format on

/// 64-bit FNV-1a, fed byte by byte in a fixed (little-endian) order so the
/// digest does not depend on the host's byte order.
class Fnv1a {
 public:
  void bytes(std::string_view s) {
    for (const char ch : s) byte(static_cast<unsigned char>(ch));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Digests {
  std::uint64_t snapshot = 0;
  std::uint64_t delivery = 0;
};

Digests drive_digests(benchx::DriveConfig cfg) {
  cfg.collect_metrics = true;
  const benchx::DriveResult r = benchx::run_drive(cfg);
  EXPECT_EQ(r.invariant_violations, 0u);
  Digests d;
  Fnv1a snap;
  snap.bytes(r.metrics->to_json());
  d.snapshot = snap.value();
  Fnv1a del;
  for (const benchx::ClientResult& c : r.clients) {
    del.u64(c.bytes);
    del.f64(c.accuracy);
    del.u64(c.assoc_timeline.size());
    for (const auto& [t, ap] : c.assoc_timeline) {
      del.f64(t);
      del.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(ap)));
    }
  }
  del.u64(r.switch_protocol_ms.size());
  for (const double ms : r.switch_protocol_ms) del.f64(ms);
  d.delivery = del.value();
  return d;
}

Digests parallel_city_digests(int workers) {
  scenario::ParallelCityConfig cfg;
  cfg.workers = workers;
  cfg.collect_metrics = true;
  const scenario::ParallelCityResult r = scenario::run_parallel_city(cfg);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_EQ(r.lookahead_violations, 0u);
  Digests d;
  Fnv1a snap;
  snap.bytes(r.metrics->to_json());
  d.snapshot = snap.value();
  Fnv1a del;
  del.u64(r.client_mbps.size());
  for (const double mbps : r.client_mbps) del.f64(mbps);
  del.u64(r.switches);
  d.delivery = del.value();
  return d;
}

benchx::DriveConfig paper_drive(std::uint64_t seed) {
  benchx::DriveConfig cfg;
  cfg.seed = seed;
  return cfg;
}

struct LockCase {
  std::string name;      // test name
  std::string_view row;  // kLockTable entry the run must reproduce
  std::function<Digests()> run;
};

std::vector<LockCase> lock_cases() {
  std::vector<LockCase> cases;
  const auto drive = [&cases](std::string_view row, benchx::DriveConfig cfg) {
    cases.push_back({std::string(row), row, [cfg] { return drive_digests(cfg); }});
  };

  drive("paper_udp", paper_drive(1));
  {
    benchx::DriveConfig cfg = paper_drive(2);
    cfg.workload = benchx::Workload::kTcpDown;
    drive("paper_tcp", cfg);
  }
  {
    benchx::DriveConfig cfg = paper_drive(3);
    cfg.workload = benchx::Workload::kUdpUp;
    cfg.udp_rate_mbps = 10.0;
    drive("paper_uplink", cfg);
  }
  {
    benchx::DriveConfig cfg = paper_drive(4);
    cfg.num_clients = 4;
    cfg.udp_rate_mbps = 8.0;
    drive("convoy_4", cfg);
  }
  {
    // AP 2 crashes under the lead client and restarts; AP 5 then loses its
    // backhaul for a second while its radio keeps serving.
    benchx::DriveConfig cfg = paper_drive(5);
    cfg.num_clients = 2;
    cfg.udp_rate_mbps = 10.0;
    scenario::ApFaultScript crash;
    crash.ap = 2;
    crash.crash_at = Time::sec(4);
    crash.restart_at = Time::sec(6);
    scenario::ApFaultScript zombie;
    zombie.ap = 5;
    zombie.zombie_at = Time::ms(7500);
    zombie.zombie_end_at = Time::ms(8500);
    cfg.ap_faults = {crash, zombie};
    drive("ap_crash_zombie", cfg);
  }
  {
    benchx::DriveConfig cfg = paper_drive(6);
    cfg.control_loss_rate = 0.05;
    drive("control_loss_5pct", cfg);
  }
  {
    benchx::DriveConfig cfg = paper_drive(7);
    cfg.backhaul_link_rate_mbps = 40.0;
    cfg.backhaul_batching = true;
    drive("backhaul_40_batched", cfg);
  }
  {
    benchx::DriveConfig cfg = paper_drive(8);
    cfg.num_domains = 2;
    cfg.controller_faults.push_back(
        {.domain = 1, .crash_at = Time::sec(4), .restart_at = Time::sec(6)});
    drive("domains_2_ctrl_crash", cfg);
  }
  {
    // AP liveness and peer-controller liveness in one drive: AP 2 crashes
    // and restarts, domain 1's controller crashes and restarts, then AP 6
    // loses its backhaul for a second while its radio keeps serving.
    benchx::DriveConfig cfg = paper_drive(13);
    cfg.num_clients = 2;
    cfg.udp_rate_mbps = 10.0;
    cfg.num_domains = 2;
    cfg.controller_faults.push_back(
        {.domain = 1, .crash_at = Time::sec(7), .restart_at = Time::sec(9)});
    scenario::ApFaultScript crash;
    crash.ap = 2;
    crash.crash_at = Time::sec(3);
    crash.restart_at = Time::sec(5);
    scenario::ApFaultScript zombie;
    zombie.ap = 6;
    zombie.zombie_at = Time::sec(10);
    zombie.zombie_end_at = Time::sec(11);
    cfg.ap_faults = {crash, zombie};
    drive("domains_2_ap_ctrl_faults", cfg);
  }
  {
    benchx::DriveConfig cfg = paper_drive(9);
    scenario::GeometryConfig geo;
    geo.num_aps = 256;
    geo.lazy_links = true;
    cfg.geometry = geo;
    cfg.num_clients = 8;
    cfg.pattern = benchx::Pattern::kDistributed;
    cfg.drive_span_m = 8.0;
    cfg.bounded_fallback = true;
    cfg.udp_rate_mbps = 4.0;
    drive("city_256x8", cfg);
  }
  for (const int workers : {1, 4}) {
    cases.push_back({"parallel_city_w" + std::to_string(workers),
                     "parallel_city",
                     [workers] { return parallel_city_digests(workers); }});
  }
  return cases;
}

const LockRow* find_row(std::string_view name) {
  for (const LockRow& row : kLockTable) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

void PrintTo(const LockCase& c, std::ostream* os) { *os << c.name; }

class BehaviourLock : public ::testing::TestWithParam<LockCase> {};

TEST_P(BehaviourLock, DigestsMatchTable) {
  const LockCase& c = GetParam();
  const LockRow* row = find_row(c.row);
  ASSERT_NE(row, nullptr) << "no kLockTable row named " << c.row;
  const Digests got = c.run();
  char replacement[160];
  std::snprintf(replacement, sizeof replacement,
                "    {\"%s\", 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},",
                std::string(c.row).c_str(), got.snapshot, got.delivery);
  EXPECT_TRUE(got.snapshot == row->snapshot && got.delivery == row->delivery)
      << "seeded behaviour changed for '" << c.row << "'"
      << (got.snapshot != row->snapshot ? " (metrics snapshot)" : "")
      << (got.delivery != row->delivery ? " (delivery record)" : "")
      << ". If the change is intended, replace its kLockTable row with:\n"
      << replacement;
}

INSTANTIATE_TEST_SUITE_P(
    Rows, BehaviourLock, ::testing::ValuesIn(lock_cases()),
    [](const ::testing::TestParamInfo<LockCase>& p) { return p.param.name; });

}  // namespace
}  // namespace wgtt
