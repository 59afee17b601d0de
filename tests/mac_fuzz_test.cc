// Randomized invariant tests for the MAC: under arbitrary channel quality
// sequences, dynamic peers and BA injections, the MAC must (1) never
// deliver the same packet twice to the application, (2) never lose packets
// silently (every enqueued MPDU is eventually delivered, retry-dropped, or
// still queued), and (3) never wedge (traffic keeps flowing once the
// channel recovers). The certified-skipping tests (DESIGN.md §14) check
// that an SNR ceiling changes no draw, outcome or callback.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "mac/medium.h"
#include "mac/wifi_mac.h"
#include "net/packet.h"
#include "phy/esnr.h"
#include "phy/mcs.h"
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

class MacFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MacFuzz, ConservationAndNoDuplicates) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 2654435761ULL + 11);

  sim::Scheduler sched;
  Medium medium(sched, {});

  // The channel quality is a shared variable the fuzzer mutates over time.
  auto snr = std::make_shared<double>(35.0);

  WifiMac::Config cfg;
  cfg.retry_limit = 1 + static_cast<int>(rng.uniform_int(6));
  cfg.hw_queue_capacity = 16 + rng.uniform_int(100);
  WifiMac tx(sched, medium, Rng{seed + 1}, cfg);
  WifiMac rx(sched, medium, Rng{seed + 2}, {});
  tx.attach([] { return channel::Vec2{0, 0}; });
  rx.attach([] { return channel::Vec2{5, 0}; });
  auto sampler = [&sched, snr](RadioId) { return flat_csi(*snr, sched.now()); };
  tx.set_channel_sampler(sampler);
  rx.set_channel_sampler(sampler);
  tx.add_peer(rx.radio());
  rx.add_peer(tx.radio());

  std::multiset<std::uint64_t> delivered_uids;
  rx.on_deliver = [&](RadioId, const net::Packet& p) {
    delivered_uids.insert(p.uid);
  };
  std::set<std::uint64_t> acked_uids;
  tx.on_mpdu_acked = [&](RadioId, std::uint16_t, const net::Packet& p) {
    // Transmit-side completion must be unique per packet too.
    EXPECT_TRUE(acked_uids.insert(p.uid).second)
        << "packet acked twice at tx side";
  };

  std::uint64_t enqueued = 0;
  std::uint64_t accepted = 0;
  for (int round = 0; round < 200; ++round) {
    // Mutate the channel: anywhere from dead to perfect.
    *snr = rng.uniform(-10.0, 40.0);
    // Offer a burst of packets.
    const int burst = static_cast<int>(rng.uniform_int(12));
    for (int i = 0; i < burst; ++i) {
      net::Packet p = net::make_packet();
      p.payload_bytes = 100 + rng.uniform_int(1300);
      ++enqueued;
      accepted += tx.enqueue(rx.radio(), std::move(p)) ? 1 : 0;
    }
    // Occasionally inject a (nonsense) forwarded BA: must never corrupt
    // state or cause duplicate completions.
    if (rng.chance(0.1)) {
      BaBitmap ba;
      ba.start_seq = static_cast<std::uint16_t>(rng.uniform_int(4096));
      ba.bits = rng.next_u64();
      tx.inject_block_ack(rx.radio(), ba);
    }
    sched.run_until(sched.now() + Time::millis(rng.uniform(1.0, 15.0)));
  }
  // Let everything settle on a good channel.
  *snr = 40.0;
  sched.run_until(sched.now() + Time::sec(2));

  // (1) No duplicate deliveries.
  for (const auto& uid : delivered_uids) {
    EXPECT_EQ(delivered_uids.count(uid), 1u) << "duplicate delivery";
  }
  // (2) Conservation: accepted = delivered-or-lost-to-retry + still queued.
  const auto& st = tx.stats(rx.radio());
  EXPECT_EQ(st.mpdus_enqueued, accepted);
  EXPECT_EQ(st.mpdus_delivered + st.mpdus_dropped_retry +
                tx.queue_depth(rx.radio()),
            accepted);
  EXPECT_EQ(st.enqueue_drops, enqueued - accepted);
  // (3) No wedge: on the recovered channel the queue drained fully.
  EXPECT_EQ(tx.queue_depth(rx.radio()), 0u);
  // Note: rx-side and tx-side delivery counts need not match exactly — a
  // lost BA can leave a delivered packet counted as retry-dropped at the
  // transmitter, and an injected (garbage) forwarded BA can complete a
  // packet the receiver never got. The invariants above are the ones the
  // design must guarantee.
}

INSTANTIATE_TEST_SUITE_P(Seeds, MacFuzz, ::testing::Range(0, 15));

// --- certified skipping (DESIGN.md §14) -------------------------------------

// The MAC's draw-first primitive against Rng::chance, over random p and
// bounds, including p = 0 or 1 and bounds that reach them: same outcome,
// same stream, and the costly p is computed at most once.
TEST(ChanceBoundedTest, SameOutcomeAndStreamAsChance) {
  Rng gen(4242);
  auto pick = [&gen](double lo, double hi) {
    switch (gen.uniform_int(4)) {
      case 0: return lo;
      case 1: return hi;
      default: return gen.uniform(lo, hi);
    }
  };
  int settled = 0;
  for (int i = 0; i < 200'000; ++i) {
    const double p = pick(0.0, 1.0);
    const double floor = pick(0.0, p);
    const double ceiling = pick(p, 1.0);
    const std::uint64_t seed = gen.next_u64();
    Rng exact(seed);
    Rng bounded(seed);
    int evaluations = 0;
    const bool want = exact.chance(p);
    const bool got = bounded.chance_bounded(floor, ceiling, [&] {
      ++evaluations;
      return p;
    });
    ASSERT_EQ(got, want) << "p " << p << " in [" << floor << ", " << ceiling << "]";
    ASSERT_EQ(bounded.next_u64(), exact.next_u64())
        << "p " << p << " in [" << floor << ", " << ceiling << "]";
    ASSERT_LE(evaluations, 1);
    if (evaluations == 0) ++settled;
  }
  EXPECT_GT(settled, 10'000);
}

/// One transmission of a fuzzed frame stream, replayed identically into
/// several receivers.
struct StreamFrame {
  Frame frame;
  int sender = 0;
  Time start;
  Time duration;
  std::array<double, kNumSubcarriers> snr{};
};

/// What one receiving MAC did with a stream.
struct Heard {
  /// (stream index, collided) of every frame reaching the MAC's position.
  std::vector<std::pair<std::size_t, bool>> arrivals;
  /// on_heard calls: tx uid and the CSI passed.
  std::vector<std::pair<std::uint64_t, std::array<double, kNumSubcarriers>>>
      on_heard;
  std::vector<std::uint64_t> delivered;  // packet uids, in order
  std::vector<std::pair<std::uint16_t, std::uint64_t>> block_acks_sent;
  int mgmt_received = 0;
  int syntheses = 0;
  std::uint64_t next_draw = 0;  // the MAC stream's next next_u64()
  bool operator==(const Heard&) const = default;
};

constexpr std::size_t kMaxFrameMpdus = 32;

std::array<double, kNumSubcarriers> fuzz_snr(Rng& rng) {
  std::array<double, kNumSubcarriers> snr{};
  const double top = rng.uniform(-40.0, 60.0);
  switch (rng.uniform_int(3)) {
    case 0:
      snr.fill(top);
      break;
    case 1:
      for (double& v : snr) v = top - rng.uniform(0.0, 40.0);
      break;
    default:
      for (double& v : snr) v = top - rng.uniform(15.0, 40.0);
      for (int k = 0; k < 3; ++k) snr[rng.uniform_int(snr.size())] = top;
      break;
  }
  return snr;
}

/// Data frames of 1-32 MPDUs at any MCS, block ACKs, beacons and
/// management frames, addressed to the MAC under test (radio 0) or
/// overheard, from two transmitters (radios 1 and 2); a fifth of the slots
/// hold two overlapping frames, which collide.
std::vector<StreamFrame> fuzz_stream(Rng& rng, int slots) {
  const RadioId mac{0};
  const std::array<RadioId, 2> senders{RadioId{1}, RadioId{2}};
  std::array<std::uint16_t, 2> next_seq{};
  std::vector<StreamFrame> out;
  for (int slot = 0; slot < slots; ++slot) {
    const int frames = rng.chance(0.2) ? 2 : 1;
    Time start = Time::ms(2) * slot;
    for (int k = 0; k < frames; ++k) {
      StreamFrame f;
      f.sender = static_cast<int>(rng.uniform_int(2));
      f.frame.from = senders[static_cast<std::size_t>(f.sender)];
      const RadioId other = senders[static_cast<std::size_t>(1 - f.sender)];
      f.frame.to = rng.chance(0.5) ? mac : other;
      switch (rng.uniform_int(4)) {
        case 0: {
          DataFrame df;
          df.mcs = static_cast<phy::Mcs>(rng.uniform_int(phy::kNumMcs));
          const std::size_t n = 1 + rng.uniform_int(kMaxFrameMpdus);
          const std::size_t bytes = 40 + rng.uniform_int(1460);
          for (std::size_t m = 0; m < n; ++m) {
            net::Packet p = net::make_packet();
            // Aggregates mostly repeat one size; some MPDUs differ.
            p.payload_bytes = rng.chance(0.8) ? bytes : 40 + rng.uniform_int(1460);
            std::uint16_t& seq = next_seq[static_cast<std::size_t>(f.sender)];
            df.mpdus.push_back(Mpdu{.seq = seq, .packet = p, .retries = 0});
            seq = static_cast<std::uint16_t>((seq + 1) & 0x0fff);
          }
          f.frame.body = std::move(df);
          break;
        }
        case 1:
          f.frame.body = BlockAckFrame{
              .start_seq = static_cast<std::uint16_t>(rng.uniform_int(4096)),
              .bitmap = rng.next_u64(),
              .acked_tx_uid = rng.next_u64()};
          break;
        case 2:
          f.frame.to = kBroadcast;
          f.frame.body = BeaconFrame{};
          break;
        default:
          f.frame.body = MgmtFrame{
              static_cast<MgmtFrame::Kind>(rng.uniform_int(4))};
          break;
      }
      // The second frame of a pair starts inside the first; distinct air
      // ends let the channel be looked up by arrival time.
      f.start = start;
      f.duration = Time::us(60 + static_cast<std::int64_t>(rng.uniform_int(300)) +
                            400 * k);
      f.snr = fuzz_snr(rng);
      start += Time::us(20);
      out.push_back(std::move(f));
    }
  }
  return out;
}

/// Replays `stream` into a fresh MAC seeded `seed`. With `ceiling_slack`
/// set, the MAC's SNR ceiling is each frame's true best subcarrier plus a
/// slack drawn from it (test-owned, never the MAC's stream).
Heard hear(const std::vector<StreamFrame>& stream, std::uint64_t seed,
           std::optional<Rng> ceiling_slack) {
  sim::Scheduler sched;
  Medium medium(sched, {});
  WifiMac mac(sched, medium, Rng{seed}, {});
  Heard out;
  const RadioId self = mac.attach([] { return channel::Vec2{0.0, 0.0}; });
  EXPECT_EQ(self, RadioId{0});
  std::array<RadioId, 2> tx{};
  for (std::size_t i = 0; i < tx.size(); ++i) {
    tx[i] = medium.add_radio(
        [] { return channel::Vec2{3.0, 0.0}; },
        [&out, i, self](const Frame& f, const Medium::RxContext&) {
          const auto* ba = std::get_if<BlockAckFrame>(&f.body);
          if (i == 0 && f.from == self && ba != nullptr) {
            out.block_acks_sent.emplace_back(ba->start_seq, ba->bitmap);
          }
        });
  }
  // Frames are looked up by arrival time: every air end is distinct.
  std::map<std::int64_t, std::size_t> by_air_end;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    by_air_end[(stream[i].start + stream[i].duration).count_ns()] = i;
  }
  EXPECT_EQ(by_air_end.size(), stream.size());
  auto frame_now = [&]() -> const StreamFrame& {
    return stream[by_air_end.at(sched.now().count_ns())];
  };
  medium.add_radio(
      [] { return channel::Vec2{0.0, 0.0}; },
      [&](const Frame& f, const Medium::RxContext& ctx) {
        if (f.from == self) return;
        out.arrivals.emplace_back(by_air_end.at(sched.now().count_ns()),
                                  ctx.collided);
      });
  mac.set_channel_sampler(
      [&](RadioId peer) {
        const StreamFrame& f = frame_now();
        EXPECT_EQ(peer, f.frame.from);
        ++out.syntheses;
        channel::CsiMeasurement m;
        m.when = sched.now();
        m.subcarrier_snr_db = f.snr;
        return m;
      },
      ceiling_slack ? WifiMac::CeilingFn([&](RadioId) {
        const StreamFrame& f = frame_now();
        const double slack = ceiling_slack->chance(0.3)
                                 ? 0.0
                                 : ceiling_slack->uniform(0.0, 25.0);
        return *std::max_element(f.snr.begin(), f.snr.end()) + slack;
      })
                    : WifiMac::CeilingFn{});
  mac.on_heard = [&out](const Frame& f, bool decoded,
                        const channel::CsiMeasurement& csi) {
    EXPECT_TRUE(decoded);
    out.on_heard.emplace_back(f.tx_uid, csi.subcarrier_snr_db);
  };
  mac.on_deliver = [&out](RadioId, const net::Packet& p) {
    out.delivered.push_back(p.uid);
  };
  mac.on_mgmt = [&out](RadioId, MgmtFrame) { ++out.mgmt_received; };

  for (const StreamFrame& f : stream) {
    sched.schedule_at(f.start, [&medium, &tx, &f] {
      medium.transmit(tx[static_cast<std::size_t>(f.sender)], f.frame, f.duration);
    });
  }
  sched.run_all();
  Rng rest = mac.rng();
  out.next_draw = rest.next_u64();
  return out;
}

/// The pre-skipping contract, replayed from a MAC's arrivals: every
/// non-collided frame costs one rng.chance(p) per MPDU on its exact ESNR
/// (BAs at MCS 3 / 32 B, beacons at MCS 0 / 300 B, management at MCS 0 /
/// 96 B), plus one BA-jitter uniform per acknowledged addressed aggregate.
/// Returns the stream indices of decoded frames and the stream's next
/// next_u64().
std::pair<std::vector<std::size_t>, std::uint64_t> replay(
    const std::vector<StreamFrame>& stream, std::uint64_t seed,
    const std::vector<std::pair<std::size_t, bool>>& arrivals) {
  Rng rng(seed);
  auto draw = [&rng](std::span<const double> snr, phy::Mcs mcs,
                     std::size_t bytes) {
    const double esnr =
        phy::effective_snr_db(snr, phy::mcs_info(mcs).modulation);
    return rng.chance(phy::mpdu_delivery_probability(esnr, mcs, bytes));
  };
  std::vector<std::size_t> decoded_frames;
  for (const auto& [index, collided] : arrivals) {
    if (collided) continue;
    const StreamFrame& f = stream[index];
    bool decoded = false;
    if (const auto* df = std::get_if<DataFrame>(&f.frame.body)) {
      for (const Mpdu& m : df->mpdus) {
        decoded = draw(f.snr, df->mcs, m.packet.air_bytes()) || decoded;
      }
      if (decoded && f.frame.to == RadioId{0}) (void)rng.uniform();
    } else if (std::holds_alternative<BlockAckFrame>(f.frame.body)) {
      decoded = draw(f.snr, phy::Mcs::kMcs3, 32);
    } else if (std::holds_alternative<BeaconFrame>(f.frame.body)) {
      decoded = draw(f.snr, phy::Mcs::kMcs0, 300);
    } else {
      decoded = draw(f.snr, phy::Mcs::kMcs0, 96);
    }
    if (decoded) decoded_frames.push_back(index);
  }
  return {decoded_frames, rng.next_u64()};
}

class CertifiedSkipFuzz : public ::testing::TestWithParam<int> {};

// Two MACs with one seed hear the same random frame stream, one with a
// ceiling (true best subcarrier plus a random slack >= 0), one without.
// Both must match each other and the pre-skipping contract draw for draw,
// while the ceiling MAC synthesises less CSI.
TEST_P(CertifiedSkipFuzz, CeilingChangesNoDrawOutcomeOrCallback) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng gen(seed * 7919 + 3);
  const std::vector<StreamFrame> stream = fuzz_stream(gen, 300);
  const std::uint64_t mac_seed = gen.next_u64();

  const Heard exact = hear(stream, mac_seed, std::nullopt);
  const Heard bounded = hear(stream, mac_seed, Rng{gen.next_u64()});

  EXPECT_EQ(bounded.arrivals, exact.arrivals);
  EXPECT_EQ(bounded.on_heard, exact.on_heard);
  EXPECT_EQ(bounded.delivered, exact.delivered);
  EXPECT_EQ(bounded.block_acks_sent, exact.block_acks_sent);
  EXPECT_EQ(bounded.mgmt_received, exact.mgmt_received);
  EXPECT_EQ(bounded.next_draw, exact.next_draw);

  // on_heard fires once per decoded frame, in arrival order, with the
  // frame's CSI.
  const auto [decoded_frames, next_draw] =
      replay(stream, mac_seed, exact.arrivals);
  ASSERT_EQ(exact.on_heard.size(), decoded_frames.size());
  for (std::size_t i = 0; i < decoded_frames.size(); ++i) {
    EXPECT_EQ(exact.on_heard[i].second, stream[decoded_frames[i]].snr) << i;
  }
  EXPECT_EQ(exact.next_draw, next_draw);

  // Not vacuous: collisions, decodes and skipped syntheses all happen.
  EXPECT_GT(std::count_if(exact.arrivals.begin(), exact.arrivals.end(),
                          [](const auto& a) { return a.second; }),
            0);
  EXPECT_GT(exact.on_heard.size(), 0u);
  EXPECT_LT(bounded.syntheses, exact.syntheses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertifiedSkipFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace wgtt::mac
