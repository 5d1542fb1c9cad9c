// Simulator substrate tests: scheduler ordering/cancellation, energy
// accounting, medium propagation/carrier-sense/collisions, trace capture
// and mobility.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/mobility.h"
#include "sim/network.h"

namespace politewifi::sim {
namespace {

// --- Scheduler ------------------------------------------------------------------

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_in(milliseconds(30), [&] { order.push_back(3); });
  s.schedule_in(milliseconds(10), [&] { order.push_back(1); });
  s.schedule_in(milliseconds(20), [&] { order.push_back(2); });
  s.run_until(kSimStart + milliseconds(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SimultaneousEventsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_in(milliseconds(10), [&order, i] { order.push_back(i); });
  }
  s.run_for(milliseconds(20));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const auto id = s.schedule_in(milliseconds(10), [&] { fired = true; });
  s.cancel(id);
  s.run_for(milliseconds(50));
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelUnknownIdIsNoop) {
  Scheduler s;
  s.cancel(9999);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) s.schedule_in(milliseconds(1), chain);
  };
  s.schedule_in(milliseconds(1), chain);
  s.run_for(milliseconds(100));
  EXPECT_EQ(count, 5);
}

TEST(Scheduler, RunUntilAdvancesClockEvenWhenIdle) {
  Scheduler s;
  s.run_until(kSimStart + seconds(3));
  EXPECT_EQ(s.now(), kSimStart + seconds(3));
}

TEST(Scheduler, PastEventsClampToNow) {
  Scheduler s;
  s.run_until(kSimStart + seconds(1));
  bool fired = false;
  s.schedule_at(kSimStart, [&] { fired = true; });  // in the past
  s.run_for(milliseconds(1));
  EXPECT_TRUE(fired);
}

// --- Energy model ------------------------------------------------------------------

TEST(EnergyMeter, IntegratesStateDwellTimes) {
  const PowerProfile esp = PowerProfile::esp8266();
  EnergyMeter meter(esp, kSimStart);
  meter.set_state(RadioState::kSleep, kSimStart);
  meter.set_state(RadioState::kIdle, kSimStart + seconds(8));
  // 8 s sleep @ 10 mW + 2 s idle @ 230 mW = 80 + 460 = 540 mJ.
  EXPECT_NEAR(meter.consumed_mj(kSimStart + seconds(10)), 540.0, 1e-6);
  EXPECT_NEAR(meter.average_mw(kSimStart + seconds(10)), 54.0, 1e-6);
}

TEST(EnergyMeter, TxRampChargesFixedEnergy) {
  const PowerProfile esp = PowerProfile::esp8266();
  EnergyMeter meter(esp, kSimStart);
  meter.set_state(RadioState::kSleep, kSimStart);
  const double before = meter.consumed_mj(kSimStart + seconds(1));
  meter.charge_tx_ramp();
  const double after = meter.consumed_mj(kSimStart + seconds(1));
  // 230 us at 560 mW = 0.1288 mJ.
  EXPECT_NEAR(after - before, 0.1288, 1e-4);
}

TEST(EnergyMeter, ResetStartsFreshWindow) {
  EnergyMeter meter(PowerProfile::esp8266(), kSimStart);
  meter.set_state(RadioState::kTx, kSimStart);
  meter.reset(kSimStart + seconds(5));
  EXPECT_NEAR(meter.consumed_mj(kSimStart + seconds(5)), 0.0, 1e-9);
  EXPECT_EQ(meter.state(), RadioState::kTx);  // state preserved
}

TEST(EnergyMeter, DwellBookkeeping) {
  // Doze → wake → receive → doze → wake. The zero-length kIdle hops are
  // the legal wake-ups between sleep and active states
  // (radio_transition_legal); they add no dwell.
  EnergyMeter meter(PowerProfile::esp8266(), kSimStart);
  meter.set_state(RadioState::kSleep, kSimStart);
  meter.set_state(RadioState::kIdle, kSimStart + seconds(3));
  meter.set_state(RadioState::kRx, kSimStart + seconds(3));
  meter.set_state(RadioState::kIdle, kSimStart + seconds(4));
  meter.set_state(RadioState::kSleep, kSimStart + seconds(4));
  meter.set_state(RadioState::kIdle, kSimStart + seconds(10));
  EXPECT_EQ(meter.dwell(RadioState::kSleep), seconds(9));
  EXPECT_EQ(meter.dwell(RadioState::kRx), seconds(1));
  EXPECT_EQ(meter.dwell(RadioState::kIdle), seconds(0));
}

TEST(Battery, HoursAtDraw) {
  const Battery circle2{2400.0};
  EXPECT_NEAR(circle2.hours_at(360.0), 6.67, 0.01);
  const Battery xt2{6000.0};
  EXPECT_NEAR(xt2.hours_at(360.0), 16.67, 0.01);
}

// --- Medium -----------------------------------------------------------------------

struct TwoRadios {
  Scheduler scheduler;
  Medium medium;
  Radio a, b;

  explicit TwoRadios(double dist_m = 5.0, MediumConfig cfg = probe_config())
      : medium(scheduler, cfg, 99),
        a(medium, scheduler, {.position = {0, 0}}),
        b(medium, scheduler, {.position = {dist_m, 0}}) {}

  static MediumConfig probe_config() {
    MediumConfig cfg;
    cfg.shadowing_sigma_db = 0.0;
    cfg.model_frame_errors = false;
    return cfg;
  }
};

frames::Frame probe_frame(const MacAddress& to, const MacAddress& from) {
  return frames::make_null_function(to, from, 1);
}

TEST(Medium, DeliversToReceiverInRange) {
  TwoRadios t;
  mac::Station sta_b({.address = {1, 1, 1, 1, 1, 1}}, t.b, Rng(1));
  t.b.set_station(&sta_b);
  t.medium.transmit(t.a, frames::serialize(probe_frame(
                             {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2})),
                    {.rate = phy::kOfdm24, .power_dbm = 15});
  t.scheduler.run_for(milliseconds(1));
  EXPECT_EQ(sta_b.stats().frames_received, 1u);
}

TEST(Medium, RxPowerFollowsPathLoss) {
  TwoRadios t;
  const double p5 = t.medium.rx_power_dbm(t.a, 15.0, t.b);
  t.b.set_position({50.0, 0});
  const double p50 = t.medium.rx_power_dbm(t.a, 15.0, t.b);
  EXPECT_GT(p5, p50);
  EXPECT_NEAR(p5 - p50, 30.0, 0.1);  // decade at n=3
}

TEST(Medium, SleepingRadioMissesFrames) {
  TwoRadios t;
  mac::Station sta_b({.address = {1, 1, 1, 1, 1, 1}}, t.b, Rng(1));
  t.b.set_station(&sta_b);
  t.b.set_sleeping(true);
  t.medium.transmit(t.a, frames::serialize(probe_frame(
                             {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2})),
                    {.rate = phy::kOfdm24, .power_dbm = 15});
  t.scheduler.run_for(milliseconds(1));
  EXPECT_EQ(sta_b.stats().frames_received, 0u);
}

TEST(Medium, CarrierSenseDuringTransmission) {
  TwoRadios t;
  EXPECT_FALSE(t.medium.busy_for(t.b));
  t.medium.transmit(t.a, Bytes(500, 0xAA),
                    {.rate = phy::kOfdm6, .power_dbm = 15});
  EXPECT_TRUE(t.medium.busy_for(t.a));   // own TX, immediately
  t.scheduler.run_for(microseconds(1));  // > the 5 m propagation delay
  EXPECT_TRUE(t.medium.busy_for(t.b));   // mid-air
  t.scheduler.run_for(milliseconds(5));  // well past airtime
  EXPECT_FALSE(t.medium.busy_for(t.b));
}

TEST(Medium, CollisionCorruptsBothWithoutCapture) {
  Scheduler scheduler;
  MediumConfig cfg = TwoRadios::probe_config();
  Medium medium(scheduler, cfg, 1);
  Radio tx1(medium, scheduler, {.position = {0, 0}});
  Radio tx2(medium, scheduler, {.position = {10, 0}});
  Radio rx(medium, scheduler, {.position = {5, 0}});
  mac::Station sta({.address = {1, 1, 1, 1, 1, 1}}, rx, Rng(1));
  rx.set_station(&sta);

  const Bytes f1 = frames::serialize(
      probe_frame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2}));
  const Bytes f2 = frames::serialize(
      probe_frame({1, 1, 1, 1, 1, 1}, {3, 3, 3, 3, 3, 3}));
  // Equidistant senders -> equal power -> no capture -> both corrupted.
  medium.transmit(tx1, f1, {.rate = phy::kOfdm24, .power_dbm = 15});
  medium.transmit(tx2, f2, {.rate = phy::kOfdm24, .power_dbm = 15});
  scheduler.run_for(milliseconds(1));
  EXPECT_EQ(sta.stats().frames_received, 0u);
  EXPECT_EQ(sta.stats().fcs_failures, 2u);
}

TEST(Medium, CaptureSurvivesWeakInterferer) {
  Scheduler scheduler;
  MediumConfig cfg = TwoRadios::probe_config();
  Medium medium(scheduler, cfg, 1);
  Radio strong(medium, scheduler, {.position = {1, 0}});
  Radio weak(medium, scheduler, {.position = {100, 0}});
  Radio rx(medium, scheduler, {.position = {0, 0}});
  mac::Station sta({.address = {1, 1, 1, 1, 1, 1}}, rx, Rng(1));
  rx.set_station(&sta);

  const Bytes f1 = frames::serialize(
      probe_frame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2}));
  medium.transmit(strong, f1, {.rate = phy::kOfdm24, .power_dbm = 15});
  medium.transmit(weak, Bytes(50, 0x55),
                  {.rate = phy::kOfdm24, .power_dbm = 15});
  scheduler.run_for(milliseconds(1));
  // ~60 dB difference: the strong frame captures.
  EXPECT_EQ(sta.stats().frames_received, 1u);
}

TEST(Medium, HalfDuplexCannotReceiveWhileTransmitting) {
  TwoRadios t;
  mac::Station sta_b({.address = {1, 1, 1, 1, 1, 1}}, t.b, Rng(1));
  t.b.set_station(&sta_b);
  // b starts a long transmission, then a transmits at it mid-air.
  t.medium.transmit(t.b, Bytes(1500, 0x11),
                    {.rate = phy::kOfdm6, .power_dbm = 15});
  t.medium.transmit(t.a, frames::serialize(probe_frame(
                             {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2})),
                    {.rate = phy::kOfdm54, .power_dbm = 15});
  t.scheduler.run_for(milliseconds(10));
  EXPECT_EQ(sta_b.stats().frames_received, 0u);
}

TEST(Medium, PerLinkShadowingIsDeterministicAndSymmetric) {
  Scheduler scheduler;
  MediumConfig cfg;
  cfg.shadowing_sigma_db = 6.0;
  Medium medium(scheduler, cfg, 7);
  Radio a(medium, scheduler, {.position = {0, 0}});
  Radio b(medium, scheduler, {.position = {30, 0}});
  const double s1 = medium.link_shadowing_db(a, b);
  const double s2 = medium.link_shadowing_db(a, b);
  const double s3 = medium.link_shadowing_db(b, a);
  EXPECT_DOUBLE_EQ(s1, s2);
  EXPECT_DOUBLE_EQ(s1, s3);
}

TEST(Medium, DifferentChannelsDoNotInteract) {
  Scheduler scheduler;
  Medium medium(scheduler, TwoRadios::probe_config(), 1);
  Radio a(medium, scheduler, {.channel = 1, .position = {0, 0}});
  Radio b(medium, scheduler, {.channel = 11, .position = {2, 0}});
  mac::Station sta({.address = {1, 1, 1, 1, 1, 1}}, b, Rng(1));
  b.set_station(&sta);
  medium.transmit(a, frames::serialize(probe_frame(
                         {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2})),
                  {.rate = phy::kOfdm24, .power_dbm = 15});
  scheduler.run_for(milliseconds(1));
  EXPECT_EQ(sta.stats().frames_received, 0u);
  EXPECT_FALSE(medium.busy_for(b));
}

TEST(Medium, CsiAttachedOnlyWhenEnabled) {
  Scheduler scheduler;
  Medium medium(scheduler, TwoRadios::probe_config(), 1);
  Radio a(medium, scheduler, {.position = {0, 0}});
  Radio b(medium, scheduler, {.position = {5, 0}, .capture_csi = true});
  std::optional<phy::RxVector> got;
  mac::Station sta({.address = {1, 1, 1, 1, 1, 1}}, b, Rng(1));
  sta.set_sniffer(
      [&got](const frames::Frame&, const phy::RxVector& rx) { got = rx; });
  b.set_station(&sta);
  medium.transmit(a, frames::serialize(probe_frame(
                         {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2})),
                  {.rate = phy::kOfdm24, .power_dbm = 15});
  scheduler.run_for(milliseconds(1));
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->csi.has_value());
  EXPECT_EQ(got->csi->h.size(), std::size_t(phy::kNumSubcarriers));
}

// --- Trace ------------------------------------------------------------------------

TEST(Trace, RecordsAndDumps) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 5});
  auto& trace = sim.trace();
  sim::RadioConfig rc;
  rc.position = {0, 0};
  Device& d = sim.add_device({.name = "dev"}, {9, 9, 9, 9, 9, 9}, rc);
  d.station().transmit_now(
      frames::make_null_function({1, 2, 3, 4, 5, 6}, {9, 9, 9, 9, 9, 9}, 3),
      phy::kOfdm24);
  sim.run_for(milliseconds(1));

  ASSERT_EQ(trace.entries().size(), 1u);
  EXPECT_EQ(trace.entries()[0].sender_name, "dev");
  std::ostringstream os;
  trace.dump(os);
  EXPECT_NE(os.str().find("Null function"), std::string::npos);
}

// --- Mobility -----------------------------------------------------------------------

TEST(Mobility, MovesAlongRouteAtSpeed) {
  Scheduler scheduler;
  Medium medium(scheduler, {}, 1);
  Radio car(medium, scheduler, {.position = {0, 0}});
  WaypointMover mover(car, scheduler, {{0, 0}, {100, 0}}, 10.0);
  mover.start();
  scheduler.run_for(seconds(5));
  EXPECT_NEAR(car.position().x, 50.0, 1.5);
  EXPECT_FALSE(mover.finished());
  scheduler.run_for(seconds(6));
  EXPECT_TRUE(mover.finished());
  EXPECT_NEAR(car.position().x, 100.0, 1e-6);
  EXPECT_NEAR(mover.distance_travelled(), 100.0, 1e-6);
}

TEST(Mobility, TurnsCorners) {
  Scheduler scheduler;
  Medium medium(scheduler, {}, 1);
  Radio car(medium, scheduler, {.position = {0, 0}});
  WaypointMover mover(car, scheduler, {{0, 0}, {10, 0}, {10, 10}}, 5.0);
  mover.start();
  scheduler.run_for(seconds(10));
  EXPECT_TRUE(mover.finished());
  EXPECT_NEAR(car.position().x, 10.0, 1e-6);
  EXPECT_NEAR(car.position().y, 10.0, 1e-6);
  EXPECT_NEAR(mover.distance_travelled(), 20.0, 1e-6);
}

// --- Device / Simulation facade ------------------------------------------------------

TEST(Simulation, FindDevice) {
  Simulation sim({.seed = 1});
  sim::RadioConfig rc;
  const MacAddress mac{5, 5, 5, 5, 5, 5};
  sim.add_device({.name = "x"}, mac, rc);
  ASSERT_NE(sim.find_device(mac), nullptr);
  EXPECT_EQ(sim.find_device({6, 6, 6, 6, 6, 6}), nullptr);
}

TEST(Simulation, EstablishInstantlyCreatesWorkingLink) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 2});
  mac::ApConfig apc;
  apc.fast_keys = true;
  apc.send_beacons = false;
  Device& ap = sim.add_ap("ap", {1, 1, 1, 1, 1, 1}, {0, 0}, apc);
  mac::ClientConfig cc;
  cc.fast_keys = true;
  Device& client = sim.add_client("c", {2, 2, 2, 2, 2, 2}, {3, 0}, cc);

  sim.establish_instantly(ap, client);
  EXPECT_TRUE(client.client()->established());
  EXPECT_TRUE(ap.ap()->is_established(client.address()));

  client.client()->send_msdu(Bytes{1, 2, 3});
  sim.run_for(milliseconds(50));
  EXPECT_EQ(ap.ap()->stats().msdus_received, 1u);
}

}  // namespace
}  // namespace politewifi::sim
