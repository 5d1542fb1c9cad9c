// Attack-pipeline integration tests: the Figure 3 deauth behaviour, the
// Figure 6 battery-drain dynamics, the Figure 5 CSI sensing chain, and a
// miniature wardriving survey.
#include <gtest/gtest.h>

#include <set>

#include "core/battery_attack.h"
#include "core/csi_collector.h"
#include "core/wardrive.h"
#include "scenario/device_profiles.h"
#include "scenario/sensing_scene.h"
#include "sensing/activity.h"

namespace politewifi {
namespace {

using sim::Device;
using sim::Simulation;

constexpr MacAddress kApMac{0xf2, 0x6e, 0x0b, 0x01, 0x02, 0x03};
constexpr MacAddress kVictimMac{0x3c, 0x28, 0x6d, 0xaa, 0xbb, 0xcc};
constexpr MacAddress kAttackerMac{0x02, 0xde, 0xad, 0xbe, 0xef, 0x01};

// --- Figure 3: the confused AP ------------------------------------------------------

TEST(Figure3, ApDeauthsStrangerYetStillAcks) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 31});
  auto& trace = sim.trace();

  mac::ApConfig apc;
  apc.fast_keys = true;
  apc.deauth_unknown_senders = true;  // the Google Wifi quirk
  Device& ap = sim.add_ap("google-wifi", kApMac, {0, 0}, apc);

  sim::RadioConfig rig;
  rig.position = {6, 0};
  Device& attacker = sim.add_device(
      {.name = "attacker", .kind = sim::DeviceKind::kAttacker}, kAttackerMac,
      rig);
  core::FakeFrameInjector injector(attacker);

  for (int i = 0; i < 10; ++i) {
    injector.inject_one(ap.address());
    sim.run_for(milliseconds(80));
  }

  // The AP software noticed (class-3 frames from a stranger) and fired
  // deauths at the spoofed address...
  EXPECT_GT(ap.ap()->stats().deauths_sent, 0u);
  const std::size_t deauths_on_air = trace.count([](const sim::TraceEntry& e) {
    return e.parsed && e.frame.fc.is_deauth() &&
           e.frame.addr1 == MacAddress::paper_fake_address();
  });
  // ...and each unACKed deauth appears as a same-SN triplet on the air
  // (initial + 2 retries), exactly like the paper's capture.
  EXPECT_EQ(deauths_on_air, 3 * ap.ap()->stats().deauths_sent);
  const std::size_t retried_deauths = trace.count([](const sim::TraceEntry& e) {
    return e.parsed && e.frame.fc.is_deauth() && e.frame.fc.retry;
  });
  EXPECT_EQ(retried_deauths, 2 * ap.ap()->stats().deauths_sent);

  // ...and the hardware ACKed every fake frame regardless.
  EXPECT_EQ(ap.station().stats().acks_sent, 10u);
}

TEST(Figure3, SoftwareBlocklistDoesNotStopAcks) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 32});
  mac::ApConfig apc;
  apc.fast_keys = true;
  Device& ap = sim.add_ap("ap", kApMac, {0, 0}, apc);

  // "We manually blocked the attacker's fake MAC address on the access
  // point. Surprisingly, the AP still acknowledges the fake frames."
  ap.ap()->block_mac(MacAddress::paper_fake_address());

  sim::RadioConfig rig;
  rig.position = {6, 0};
  Device& attacker = sim.add_device(
      {.name = "attacker", .kind = sim::DeviceKind::kAttacker}, kAttackerMac,
      rig);
  core::FakeFrameInjector injector(attacker);
  for (int i = 0; i < 10; ++i) {
    injector.inject_one(ap.address());
    sim.run_for(milliseconds(10));
  }

  EXPECT_EQ(ap.station().stats().acks_sent, 10u);           // hardware: polite
  EXPECT_EQ(ap.ap()->stats().software_drops_blocked, 10u);  // software: blocked
}

// --- Figure 6: battery drain ---------------------------------------------------------

struct BatteryRig {
  Simulation sim{{.medium = {.shadowing_sigma_db = 0.0}, .seed = 61}};
  Device* ap = nullptr;
  Device* victim = nullptr;
  Device* attacker = nullptr;

  BatteryRig() {
    mac::ApConfig apc;
    apc.fast_keys = true;
    ap = &sim.add_ap("ap", kApMac, {0, 0}, apc);

    mac::ClientConfig cc;
    cc.fast_keys = true;
    cc.power_save = true;
    cc.idle_timeout = milliseconds(100);  // the ">10 pps" knee
    cc.beacon_wake_window = milliseconds(1);
    Device& v = sim.add_client("esp8266", kVictimMac, {4, 0}, cc);
    victim = &v;

    sim::RadioConfig rig;
    rig.position = {7, 2};
    attacker = &sim.add_device(
        {.name = "attacker", .kind = sim::DeviceKind::kAttacker},
        kAttackerMac, rig);

    sim.establish(v, seconds(10));
  }
};

TEST(Figure6, UnattackedVictimSleepsNearTenMilliwatts) {
  BatteryRig rig;
  core::BatteryDrainAttack attack(rig.sim, *rig.attacker, *rig.victim);
  const auto r = attack.run(0.0, seconds(3), seconds(20));
  EXPECT_GT(r.sleep_fraction, 0.9);
  EXPECT_LT(r.avg_power_mw, 30.0);  // paper: ~10 mW
  EXPECT_EQ(r.acks_elicited, 0u);
}

TEST(Figure6, AttackAboveKneePinsRadioAwake) {
  // Paper: ~230 mW once awake. 20 pps is just past the knee the 100 ms
  // idle timer puts at ~10 pps; 100 pps is well past it.
  struct Point {
    double rate_pps;
    double min_mw;
    std::uint64_t min_acks;  // 3/4 of the frames sent over 20 s
  };
  for (const Point p : {Point{20.0, 180.0, 300}, Point{100.0, 200.0, 1500}}) {
    SCOPED_TRACE(p.rate_pps);
    BatteryRig rig;
    core::BatteryDrainAttack attack(rig.sim, *rig.attacker, *rig.victim);
    const auto r = attack.run(p.rate_pps, seconds(3), seconds(20));
    EXPECT_LT(r.sleep_fraction, 0.05);
    EXPECT_GT(r.avg_power_mw, p.min_mw);
    EXPECT_GT(r.acks_elicited, p.min_acks);
  }
}

TEST(Figure6, PowerGrowsWithRate) {
  BatteryRig rig;
  core::BatteryDrainAttack attack(rig.sim, *rig.attacker, *rig.victim);
  const auto r100 = attack.run(100.0, seconds(2), seconds(10));
  const auto r900 = attack.run(900.0, seconds(2), seconds(10));
  EXPECT_GT(r900.avg_power_mw, r100.avg_power_mw + 50.0);
  // Paper's headline: ~35x increase at 900 pps vs idle (10 mW).
  EXPECT_GT(r900.avg_power_mw, 300.0);
  EXPECT_LT(r900.avg_power_mw, 450.0);
}

TEST(Figure6, CameraProjectionsMatchPaperArithmetic) {
  const auto circle2 = scenario::logitech_circle2();
  const auto xt2 = scenario::blink_xt2();
  const auto p1 = core::project_drain(circle2.name, circle2.battery_mwh, 360.0);
  const auto p2 = core::project_drain(xt2.name, xt2.battery_mwh, 360.0);
  EXPECT_NEAR(p1.hours_to_empty, 6.7, 0.05);
  EXPECT_NEAR(p2.hours_to_empty, 16.7, 0.05);
}

// --- Figure 5: CSI sensing chain --------------------------------------------------------

TEST(Figure5, CsiVarianceSeparatesActivities) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 51});

  mac::ClientConfig cc;
  cc.fast_keys = true;
  Device& victim = sim.add_client("tablet", kVictimMac, {4, 0}, cc);

  sim::RadioConfig rig;
  rig.position = {9, 5};  // "different room"
  rig.capture_csi = true;
  Device& attacker = sim.add_device(
      {.name = "esp32", .kind = sim::DeviceKind::kAttacker}, kAttackerMac,
      rig);

  // Script: 8 s still, 4 s pickup, 8 s hold, 8 s typing (Figure 5's arc).
  scenario::BodyMotionModel model({.seed = 5});
  model.add_phase(scenario::Activity::kStill, seconds(8));
  model.add_phase(scenario::Activity::kPickup, seconds(4));
  model.add_phase(scenario::Activity::kHold, seconds(8));
  model.add_phase(scenario::Activity::kTyping, seconds(8));
  const auto strokes = scenario::TypingModel::generate(
      "the quick brown fox", {.words_per_minute = 40, .seed = 3});
  // Shift keystrokes into the typing phase (starts at t=20 s).
  std::vector<scenario::Keystroke> shifted;
  for (auto k : strokes) {
    k.at += seconds(20);
    if (k.at < seconds(28)) shifted.push_back(k);
  }
  model.set_keystrokes(shifted);

  const TimePoint start = sim.now();
  scenario::install_body_csi(sim.medium(), victim.radio(), attacker.radio(),
                             &model, start);

  core::CsiCollector collector(attacker, victim.address());
  collector.start(150.0);  // the paper's rate
  sim.run_for(seconds(28));
  collector.stop();

  ASSERT_GT(collector.samples().size(), 3000u);  // ~150 Hz for 28 s

  const auto series = sensing::resample_amplitude(collector.samples(),
                                                  /*subcarrier=*/17, 150.0);
  auto window_sigma = [&](double t0, double t1) {
    std::vector<double> seg;
    for (std::size_t i = 0; i < series.size(); ++i) {
      const double t = series.time_of(i) - series.t0_s;
      if (t >= t0 && t < t1) seg.push_back(series.v[i]);
    }
    return sensing::stddev(seg);
  };

  const double still_sigma = window_sigma(1, 7);
  const double pickup_sigma = window_sigma(8.5, 11.5);
  const double hold_sigma = window_sigma(13, 19);
  const double typing_sigma = window_sigma(21, 27);

  // The Figure 5 shape: still is flat; pickup is wild; typing is clearly
  // busier than holding.
  EXPECT_GT(pickup_sigma, 20.0 * still_sigma);
  EXPECT_GT(typing_sigma, 1.5 * hold_sigma);
  EXPECT_GT(hold_sigma, still_sigma);
}

TEST(Figure5, ActivityDetectorFindsTheArc) {
  // Same rig, evaluated through the sensing pipeline's segmentation: each
  // walk must show up as exactly one motion event within 2 s of its start
  // (the §4.3 "sharp changes at times 9 and 32").
  using scenario::Activity;
  struct Scene {
    std::uint64_t body_seed;
    std::vector<std::pair<Activity, int>> phases_s;
    std::vector<double> walks_s;
  };
  const Scene scenes[] = {
      {9,
       {{Activity::kStill, 10},
        {Activity::kWalking, 5},
        {Activity::kStill, 10}},
       {10.0}},
      // The §4.3 living room: someone walks through at 9 s and at 32 s.
      {91,
       {{Activity::kStill, 9},
        {Activity::kWalking, 3},
        {Activity::kStill, 20},
        {Activity::kWalking, 3},
        {Activity::kStill, 10}},
       {9.0, 32.0}},
  };
  for (const Scene& scene : scenes) {
    SCOPED_TRACE(scene.body_seed);
    Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 52});
    mac::ClientConfig cc;
    cc.fast_keys = true;
    Device& victim = sim.add_client("tablet", kVictimMac, {4, 0}, cc);
    sim::RadioConfig rig;
    rig.position = {9, 5};
    rig.capture_csi = true;
    Device& attacker = sim.add_device(
        {.name = "esp32", .kind = sim::DeviceKind::kAttacker}, kAttackerMac,
        rig);

    scenario::BodyMotionModel model({.seed = scene.body_seed});
    int total_s = 0;
    for (const auto& [activity, s] : scene.phases_s) {
      model.add_phase(activity, seconds(s));
      total_s += s;
    }

    scenario::install_body_csi(sim.medium(), victim.radio(), attacker.radio(),
                               &model, sim.now());
    core::CsiCollector collector(attacker, victim.address());
    collector.start(150.0);
    sim.run_for(seconds(total_s));
    collector.stop();

    const auto series =
        sensing::resample_amplitude(collector.samples(), 17, 150.0);
    sensing::ActivityDetector detector;
    const auto events = detector.motion_events(series);
    ASSERT_EQ(events.size(), scene.walks_s.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_NEAR(events[i] - series.t0_s, scene.walks_s[i], 2.0);
    }
  }
}

// --- Miniature wardrive --------------------------------------------------------------------

TEST(Wardrive, MiniCityFullResponseRate) {
  Simulation sim({.seed = 71});
  scenario::CityConfig city_cfg;
  city_cfg.scale = 0.004;  // a few dozen devices
  city_cfg.seed = 71;
  const scenario::CityPlan plan(scenario::CityPlan::grid_route(1, 400),
                                city_cfg);
  ASSERT_GT(plan.devices().size(), 20u);

  core::WardriveConfig cfg;
  cfg.speed_mps = 15.0;
  cfg.max_duration = minutes(10);
  core::WardriveCampaign campaign(sim, plan, cfg);
  const auto report = campaign.run();

  EXPECT_GT(report.discovered, plan.devices().size() / 2);
  EXPECT_GT(report.discovered_aps, 0u);
  EXPECT_GT(report.discovered_clients, 0u);
  // The paper's headline: every discovered device responds. We allow a
  // whisker of slack for devices first heard at the extreme edge of
  // radio range as the drive ends (the full-scale survey reports ~100%).
  EXPECT_GE(report.response_rate(), 0.98);
  EXPECT_GT(report.acks_observed, 0u);
  // Vendor attribution flows back through the OUI database.
  EXPECT_GT(report.distinct_vendors, 5u);
}

TEST(Wardrive, MultiChannelCityNeedsHoppingRig) {
  Simulation sim({.seed = 72});
  scenario::CityConfig city_cfg;
  city_cfg.scale = 0.004;
  city_cfg.seed = 72;
  city_cfg.channels = {1, 6, 11};  // realistic 2.4 GHz deployment
  const scenario::CityPlan plan(scenario::CityPlan::grid_route(1, 400),
                                city_cfg);

  // Sanity: the city really spans several channels.
  std::set<int> channels;
  for (const auto& d : plan.devices()) channels.insert(d.channel);
  ASSERT_EQ(channels.size(), 3u);

  core::WardriveConfig cfg;
  cfg.speed_mps = 15.0;
  cfg.max_duration = minutes(10);
  cfg.hop_channels = {1, 6, 11};
  core::WardriveCampaign campaign(sim, plan, cfg);
  const auto report = campaign.run();

  // The hopping rig hears devices on all three channels. Coverage per
  // channel is ~1/3 duty, so discovery dips a little vs single-channel,
  // but every channel contributes and verification still works.
  EXPECT_GT(report.discovered, plan.devices().size() / 3);
  EXPECT_GE(report.response_rate(), 0.9);
  std::set<int> heard_channels;
  for (const auto& spec : plan.devices()) {
    if (campaign.scanner().devices().count(spec.mac) > 0) {
      heard_channels.insert(spec.channel);
    }
  }
  EXPECT_EQ(heard_channels.size(), 3u);
}

}  // namespace
}  // namespace politewifi
