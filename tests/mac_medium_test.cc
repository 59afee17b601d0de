// Unit tests for the shared-medium model: carrier sense, audibility,
// collision marking.
#include <gtest/gtest.h>

#include <vector>

#include <cmath>

#include "mac/medium.h"
#include "sim/scheduler.h"

namespace wgtt::mac {
namespace {

struct Rx {
  Frame frame;
  Medium::RxContext ctx;
};

class MediumTest : public ::testing::Test {
 protected:
  RadioId add(channel::Vec2 pos, std::vector<Rx>* log) {
    return medium_.add_radio([pos] { return pos; },
                             [log](const Frame& f, const Medium::RxContext& c) {
                               if (log) log->push_back({f, c});
                             });
  }

  Frame beacon(RadioId to = kBroadcast) {
    Frame f;
    f.to = to;
    f.body = BeaconFrame{};
    return f;
  }

  sim::Scheduler sched_;
  Medium medium_{sched_, {}};
};

TEST_F(MediumTest, DeliversToAudibleRadios) {
  std::vector<Rx> a_log;
  std::vector<Rx> b_log;
  const RadioId a = add({0, 0}, &a_log);
  add({50, 0}, &b_log);
  medium_.transmit(a, beacon(), Time::us(100));
  sched_.run_all();
  EXPECT_TRUE(a_log.empty());  // no self-reception
  ASSERT_EQ(b_log.size(), 1u);
  EXPECT_EQ(b_log[0].frame.from, a);
  EXPECT_FALSE(b_log[0].ctx.collided);
  EXPECT_EQ(b_log[0].frame.air_end, Time::us(100));
}

TEST_F(MediumTest, OutOfRangeHearsNothing) {
  std::vector<Rx> far_log;
  const RadioId a = add({0, 0}, nullptr);
  add({500, 0}, &far_log);  // beyond the 120 m sense range
  medium_.transmit(a, beacon(), Time::us(100));
  sched_.run_all();
  EXPECT_TRUE(far_log.empty());
}

TEST_F(MediumTest, BusyUntilReflectsInFlight) {
  const RadioId a = add({0, 0}, nullptr);
  const RadioId b = add({10, 0}, nullptr);
  EXPECT_EQ(medium_.busy_until(b), sched_.now());
  medium_.transmit(a, beacon(), Time::ms(2));
  EXPECT_EQ(medium_.busy_until(b), Time::ms(2));
  // The transmitter itself is not blocked by its own frame.
  EXPECT_EQ(medium_.busy_until(a), sched_.now());
}

TEST_F(MediumTest, BusyUntilIgnoresFarTransmitters) {
  add({0, 0}, nullptr);
  const RadioId far = medium_.add_radio([] { return channel::Vec2{500, 0}; },
                                        [](const Frame&, const Medium::RxContext&) {});
  const RadioId near = add({10, 0}, nullptr);
  medium_.transmit(far, beacon(), Time::ms(5));
  EXPECT_EQ(medium_.busy_until(near), sched_.now());
}

TEST_F(MediumTest, OverlappingTransmissionsCollide) {
  std::vector<Rx> c_log;
  const RadioId a = add({0, 0}, nullptr);
  const RadioId b = add({20, 0}, nullptr);
  add({10, 0}, &c_log);
  medium_.transmit(a, beacon(), Time::us(100));
  sched_.run_until(Time::us(50));
  medium_.transmit(b, beacon(), Time::us(100));
  sched_.run_all();
  ASSERT_EQ(c_log.size(), 2u);
  EXPECT_TRUE(c_log[0].ctx.collided);
  EXPECT_TRUE(c_log[1].ctx.collided);
  EXPECT_GE(medium_.collisions_observed(), 2u);
}

TEST_F(MediumTest, NonOverlappingDoNotCollide) {
  std::vector<Rx> c_log;
  const RadioId a = add({0, 0}, nullptr);
  const RadioId b = add({20, 0}, nullptr);
  add({10, 0}, &c_log);
  medium_.transmit(a, beacon(), Time::us(100));
  sched_.run_until(Time::us(200));
  medium_.transmit(b, beacon(), Time::us(100));
  sched_.run_all();
  ASSERT_EQ(c_log.size(), 2u);
  EXPECT_FALSE(c_log[0].ctx.collided);
  EXPECT_FALSE(c_log[1].ctx.collided);
}

TEST_F(MediumTest, HiddenTerminalCollision) {
  // a and b are out of range of each other but both audible at c: their
  // concurrent transmissions collide at c even though each sensed idle.
  std::vector<Rx> c_log;
  const RadioId a = add({0, 0}, nullptr);
  const RadioId b = add({200, 0}, nullptr);
  add({100, 0}, &c_log);
  EXPECT_EQ(medium_.busy_until(b), sched_.now());
  medium_.transmit(a, beacon(), Time::us(100));
  EXPECT_EQ(medium_.busy_until(b), sched_.now());  // b cannot hear a
  medium_.transmit(b, beacon(), Time::us(100));
  sched_.run_all();
  ASSERT_EQ(c_log.size(), 2u);
  EXPECT_TRUE(c_log[0].ctx.collided);
}

TEST_F(MediumTest, FrameMetadataFilledIn) {
  std::vector<Rx> b_log;
  const RadioId a = add({0, 0}, nullptr);
  add({10, 0}, &b_log);
  sched_.run_until(Time::ms(3));
  const std::uint64_t uid = medium_.transmit(a, beacon(), Time::us(40));
  sched_.run_all();
  ASSERT_EQ(b_log.size(), 1u);
  EXPECT_EQ(b_log[0].frame.tx_uid, uid);
  EXPECT_EQ(b_log[0].frame.air_start, Time::ms(3));
  EXPECT_EQ(b_log[0].frame.air_end, Time::ms(3) + Time::us(40));
}

TEST_F(MediumTest, MovingReceiverEvaluatedAtDelivery) {
  // A radio that moves out of range during a long frame is evaluated at the
  // frame end: it should not receive.
  std::vector<Rx> log;
  const RadioId a = add({0, 0}, nullptr);
  auto pos = std::make_shared<channel::Vec2>(channel::Vec2{10, 0});
  medium_.add_radio([pos] { return *pos; },
                    [&log](const Frame& f, const Medium::RxContext& c) {
                      log.push_back({f, c});
                    });
  medium_.transmit(a, beacon(), Time::ms(1));
  *pos = {400, 0};  // teleports away before air end
  sched_.run_all();
  EXPECT_TRUE(log.empty());
}

TEST_F(MediumTest, ChannelsIsolateRadios) {
  std::vector<Rx> b_log;
  const RadioId a = add({0, 0}, nullptr);
  const RadioId b = add({10, 0}, &b_log);
  medium_.set_radio_channel(a, 1);
  medium_.set_radio_channel(b, 6);
  medium_.transmit(a, beacon(), Time::us(100));
  sched_.run_all();
  EXPECT_TRUE(b_log.empty());  // different channel: deaf
  medium_.set_radio_channel(b, 1);
  medium_.transmit(a, beacon(), Time::us(100));
  sched_.run_all();
  EXPECT_EQ(b_log.size(), 1u);
}

TEST_F(MediumTest, NoChannelHearsNothing) {
  std::vector<Rx> b_log;
  const RadioId a = add({0, 0}, nullptr);
  const RadioId b = add({10, 0}, &b_log);
  medium_.set_radio_channel(b, Medium::kNoChannel);  // mid-retune blackout
  medium_.transmit(a, beacon(), Time::us(100));
  sched_.run_all();
  EXPECT_TRUE(b_log.empty());
}

TEST_F(MediumTest, BusyUntilIsPerChannel) {
  const RadioId a = add({0, 0}, nullptr);
  const RadioId b = add({10, 0}, nullptr);
  medium_.set_radio_channel(b, 6);
  medium_.transmit(a, beacon(), Time::ms(2));
  // b is on another channel: the medium looks idle to it.
  EXPECT_EQ(medium_.busy_until(b), sched_.now());
}

TEST_F(MediumTest, MidFrameRetuneLosesFrame) {
  std::vector<Rx> b_log;
  const RadioId a = add({0, 0}, nullptr);
  const RadioId b = add({10, 0}, &b_log);
  medium_.transmit(a, beacon(), Time::ms(1));
  sched_.run_until(Time::us(500));
  medium_.set_radio_channel(b, 6);  // retunes away mid-frame
  sched_.run_all();
  EXPECT_TRUE(b_log.empty());
}

TEST_F(MediumTest, CaptureEffectStrongFrameSurvives) {
  // With a power oracle, the much-stronger of two overlapping frames is
  // decodable; the weaker one is marked collided.
  std::vector<Rx> c_log;
  const RadioId a = add({0, 0}, nullptr);    // strong (close to listener)
  const RadioId b = add({100, 0}, nullptr);  // weak (far)
  add({5, 0}, &c_log);
  medium_.set_power_oracle([](RadioId tx, channel::Vec2 at) {
    const double d = tx == RadioId{0} ? channel::distance({0, 0}, at)
                                      : channel::distance({100, 0}, at);
    return -40.0 - 20.0 * std::log10(std::max(d, 1.0));
  });
  medium_.transmit(a, beacon(), Time::us(100));
  medium_.transmit(b, beacon(), Time::us(100));
  sched_.run_all();
  ASSERT_EQ(c_log.size(), 2u);
  int collided = 0;
  int clean = 0;
  for (const auto& rx : c_log) {
    if (rx.ctx.collided) {
      ++collided;
    } else {
      ++clean;
      EXPECT_EQ(rx.frame.from, a);  // the strong one survives
    }
  }
  EXPECT_EQ(clean, 1);
  EXPECT_EQ(collided, 1);
}

}  // namespace
}  // namespace wgtt::mac
