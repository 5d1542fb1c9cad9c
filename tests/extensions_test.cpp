// Tests for the extension modules: ToF ranging/localization (the Wi-Peep
// follow-up direction), 802.11w PMF, and the defense library.
#include <gtest/gtest.h>

#include "core/injector.h"
#include "crypto/wpa2.h"
#include "core/localizer.h"
#include "core/ranging.h"
#include "defense/battery_guard.h"
#include "defense/injection_detector.h"
#include "sim/network.h"

namespace politewifi {
namespace {

using sim::Device;
using sim::Simulation;

constexpr MacAddress kApMac{0xf2, 0x6e, 0x0b, 0x01, 0x02, 0x03};
constexpr MacAddress kVictimMac{0x3c, 0x28, 0x6d, 0xaa, 0xbb, 0xcc};
constexpr MacAddress kAttackerMac{0x02, 0xde, 0xad, 0xbe, 0xef, 0x01};

// --- Propagation delay & ToF ranging -----------------------------------------

TEST(Ranging, RecoversDistanceWithinJitterBudget) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 80});
  mac::ClientConfig cc;
  cc.fast_keys = true;
  Device& victim = sim.add_client("victim", kVictimMac, {60.0, 0.0}, cc);

  sim::RadioConfig rig;
  rig.position = {0.0, 0.0};
  Device& attacker = sim.add_device(
      {.name = "ranger", .kind = sim::DeviceKind::kAttacker}, kAttackerMac,
      rig);

  core::RttRanger ranger(sim, attacker);
  const auto est = ranger.range(victim.address(), 40);
  ASSERT_GT(est.measurements, 30u);
  // No SIFS jitter configured: the estimate should be metre-exact
  // (quantized only by the simulator's 1 ns clock ~ 0.15 m).
  EXPECT_NEAR(est.distance_m, 60.0, 0.5);
}

TEST(Ranging, JitterWidensButAveragingRecovers) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 81});
  mac::MacConfig jittery;
  jittery.sifs_jitter_ns = 120.0;  // realistic silicon
  sim::RadioConfig rc;
  rc.position = {40.0, 0.0};
  Device& victim = sim.add_device({.name = "victim"}, kVictimMac, rc, jittery);

  sim::RadioConfig rig;
  rig.position = {0.0, 0.0};
  Device& attacker = sim.add_device(
      {.name = "ranger", .kind = sim::DeviceKind::kAttacker}, kAttackerMac,
      rig);

  core::RttRanger ranger(sim, attacker);
  const auto est = ranger.range(victim.address(), 150);
  ASSERT_GT(est.measurements, 100u);
  // Jitter only delays (one-sided), biasing the estimate long; the bias
  // bound is jitter*c/2 ~ 18 m for 120 ns. Averaging keeps us inside it.
  EXPECT_GT(est.distance_m, 35.0);
  EXPECT_LT(est.distance_m, 70.0);
  EXPECT_GT(est.stddev_m, 0.5);  // single shots really do scatter
}

TEST(Ranging, UnreachableTargetReportsLoss) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 82});
  sim::RadioConfig rc;
  rc.position = {5000.0, 0.0};
  sim.add_device({.name = "victim"}, kVictimMac, rc);
  sim::RadioConfig rig;
  Device& attacker = sim.add_device(
      {.name = "ranger", .kind = sim::DeviceKind::kAttacker}, kAttackerMac,
      rig);
  core::RttRanger ranger(sim, attacker);
  const auto est = ranger.range(kVictimMac, 10);
  EXPECT_EQ(est.measurements, 0u);
  EXPECT_EQ(est.lost, 10u);
}

// --- Trilateration -------------------------------------------------------------

TEST(Localizer, ExactRangesExactFix) {
  const Position truth{30.0, 40.0};
  std::vector<core::RangeObservation> obs;
  for (const Position anchor :
       {Position{0, 0}, Position{100, 0}, Position{0, 100}}) {
    obs.push_back({anchor, distance(anchor, truth)});
  }
  const auto fix = core::trilaterate(obs);
  EXPECT_TRUE(fix.converged);
  EXPECT_NEAR(fix.position.x, truth.x, 1e-3);
  EXPECT_NEAR(fix.position.y, truth.y, 1e-3);
  EXPECT_LT(fix.residual_m, 1e-3);
}

TEST(Localizer, NoisyRangesStillCloseWithMoreAnchors) {
  const Position truth{25.0, -15.0};
  Rng rng(5);
  std::vector<core::RangeObservation> obs;
  for (int i = 0; i < 8; ++i) {
    const Position anchor{rng.uniform(-80, 80), rng.uniform(-80, 80)};
    obs.push_back({anchor, distance(anchor, truth) + rng.gaussian(0.0, 2.0)});
  }
  const auto fix = core::trilaterate(obs);
  EXPECT_NEAR(fix.position.x, truth.x, 4.0);
  EXPECT_NEAR(fix.position.y, truth.y, 4.0);
}

TEST(Localizer, DegenerateInputsHandled) {
  EXPECT_FALSE(core::trilaterate({}).converged);
  // Collinear anchors cannot pin the off-axis coordinate; the solver must
  // not blow up.
  std::vector<core::RangeObservation> collinear{
      {{0, 0}, 10.0}, {{10, 0}, 10.0}, {{20, 0}, 10.0}};
  const auto fix = core::trilaterate(collinear);
  EXPECT_TRUE(std::isfinite(fix.position.x));
  EXPECT_TRUE(std::isfinite(fix.position.y));
}

TEST(Localizer, EndToEndThroughSimulatedRanges) {
  // The Wi-Peep flow: range one victim from four attacker positions and
  // trilaterate. All from ACK timing; victim is a stock station.
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 84});
  const Position truth{25.0, 18.0};
  sim::RadioConfig rc;
  rc.position = truth;
  sim.add_device({.name = "victim"}, kVictimMac, rc);

  sim::RadioConfig rig;
  rig.position = {0, 0};
  Device& attacker = sim.add_device(
      {.name = "drone", .kind = sim::DeviceKind::kAttacker}, kAttackerMac,
      rig);
  core::RttRanger ranger(sim, attacker);

  std::vector<core::RangeObservation> obs;
  for (const Position anchor :
       {Position{0, 0}, Position{60, 0}, Position{60, 50}, Position{0, 50}}) {
    attacker.radio().set_position(anchor);
    const auto est = ranger.range(kVictimMac, 25);
    ASSERT_GT(est.measurements, 15u);
    obs.push_back({anchor, est.distance_m});
  }
  const auto fix = core::trilaterate(obs);
  EXPECT_NEAR(fix.position.x, truth.x, 2.0);
  EXPECT_NEAR(fix.position.y, truth.y, 2.0);
}

// --- 802.11w PMF ------------------------------------------------------------------

struct PmfRig {
  Simulation sim{{.medium = {.shadowing_sigma_db = 0.0}, .seed = 85}};
  Device* ap = nullptr;
  Device* victim = nullptr;
  Device* attacker = nullptr;

  explicit PmfRig(bool pmf) {
    mac::ApConfig apc;
    apc.fast_keys = true;
    apc.pmf = pmf;
    ap = &sim.add_ap("ap", kApMac, {0, 0}, apc);
    mac::ClientConfig cc;
    cc.fast_keys = true;
    cc.pmf = pmf;
    victim = &sim.add_client("victim", kVictimMac, {4, 0}, cc);
    sim::RadioConfig rig;
    rig.position = {8, 3};
    attacker = &sim.add_device(
        {.name = "attacker", .kind = sim::DeviceKind::kAttacker},
        kAttackerMac, rig);
    sim.establish(*victim, seconds(10));
  }
};

TEST(Pmf, WithoutPmfSpoofedDeauthDisconnects) {
  PmfRig rig(/*pmf=*/false);
  ASSERT_TRUE(rig.victim->client()->established());
  core::FakeFrameInjector injector(*rig.attacker);
  injector.inject_spoofed_deauth(kVictimMac, kApMac);
  rig.sim.run_for(milliseconds(50));
  EXPECT_FALSE(rig.victim->client()->established());
  EXPECT_EQ(rig.victim->client()->stats().deauths_accepted, 1u);
}

TEST(Pmf, WithPmfSpoofedDeauthRejected) {
  PmfRig rig(/*pmf=*/true);
  ASSERT_TRUE(rig.victim->client()->established());
  core::FakeFrameInjector injector(*rig.attacker);
  for (int i = 0; i < 5; ++i) {
    injector.inject_spoofed_deauth(kVictimMac, kApMac);
    rig.sim.run_for(milliseconds(20));
  }
  EXPECT_TRUE(rig.victim->client()->established());
  EXPECT_EQ(rig.victim->client()->stats().spoofed_deauths_rejected, 5u);
}

TEST(Pmf, GenuineProtectedDeauthStillWorks) {
  PmfRig rig(/*pmf=*/true);
  ASSERT_TRUE(rig.victim->client()->established());
  // The AP's own deauth, CCMP-protected under the link's (fast) PTK.
  frames::Frame deauth = frames::make_deauth(
      kVictimMac, kApMac, kApMac, frames::ReasonCode::kDeauthLeaving,
      rig.ap->station().next_sequence());
  crypto::Wpa2Session(crypto::derive_fast_ptk(kApMac, kVictimMac))
      .protect(deauth);
  rig.ap->station().send(std::move(deauth), phy::kOfdm6);
  rig.sim.run_for(milliseconds(30));
  // The protected deauth was authenticated and honoured. (Left running,
  // the client promptly re-scans and re-associates — which is correct.)
  EXPECT_EQ(rig.victim->client()->stats().deauths_accepted, 1u);
  EXPECT_EQ(rig.victim->client()->stats().spoofed_deauths_rejected, 0u);
}

TEST(Pmf, PoliteWifiEntirelyUnaffected) {
  // The paper's footnote 2: PMF protects management frames; the ACK
  // machinery is below it and keeps answering strangers.
  PmfRig rig(/*pmf=*/true);
  core::FakeFrameInjector null_injector(*rig.attacker);
  core::FakeFrameInjector rts_injector(*rig.attacker, {.use_rts = true});
  const auto acks_before = rig.victim->station().stats().acks_sent;
  for (int i = 0; i < 10; ++i) {
    null_injector.inject_one(kVictimMac);
    rig.sim.run_for(milliseconds(5));  // one frame on air at a time
    rts_injector.inject_one(kVictimMac);
    rig.sim.run_for(milliseconds(5));
  }
  EXPECT_GE(rig.victim->station().stats().acks_sent - acks_before, 9u);
  EXPECT_GE(rig.victim->station().stats().cts_sent, 9u);
  EXPECT_TRUE(rig.victim->client()->established());
}

// --- Injection detector ----------------------------------------------------------

frames::Frame fake_null(const MacAddress& victim) {
  return frames::make_null_function(victim, MacAddress::paper_fake_address(),
                                    1);
}

TEST(InjectionDetector, FlagsSensingPollRate) {
  defense::InjectionDetector detector;
  TimePoint t = kSimStart;
  std::vector<defense::ThreatAlert> all;
  for (int i = 0; i < 200; ++i) {
    const auto raised = detector.observe(fake_null(kVictimMac), t);
    all.insert(all.end(), raised.begin(), raised.end());
    t += milliseconds(7);  // ~150 fps, the paper's sensing rate
  }
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front().kind, defense::ThreatKind::kSensingPoll);
  EXPECT_EQ(all.front().attacker, MacAddress::paper_fake_address());
  EXPECT_EQ(all.front().victim, kVictimMac);
  EXPECT_GE(all.front().rate_pps, 30.0);
  // Detection latency: well under a second of attack traffic.
  EXPECT_LT(to_seconds(all.front().raised_at - kSimStart), 1.0);
}

TEST(InjectionDetector, ClassifiesDrainByRate) {
  defense::InjectionDetector detector;
  TimePoint t = kSimStart;
  bool drain_seen = false;
  for (int i = 0; i < 2000; ++i) {
    for (const auto& a : detector.observe(fake_null(kVictimMac), t)) {
      if (a.kind == defense::ThreatKind::kBatteryDrain) drain_seen = true;
    }
    t += microseconds(1111);  // 900 fps
  }
  EXPECT_TRUE(drain_seen);
}

TEST(InjectionDetector, FlagsWardrivingSweep) {
  defense::InjectionDetector detector;
  TimePoint t = kSimStart;
  bool sweep_seen = false;
  for (int i = 0; i < 30; ++i) {
    MacAddress victim{0x10, 0x20, 0x30, 0x40, 0x50,
                      static_cast<std::uint8_t>(i)};
    for (const auto& a : detector.observe(fake_null(victim), t)) {
      if (a.kind == defense::ThreatKind::kProbeSweep) sweep_seen = true;
    }
    t += milliseconds(30);
  }
  EXPECT_TRUE(sweep_seen);
}

TEST(InjectionDetector, FlagsDeauthFlood) {
  defense::InjectionDetector detector;
  TimePoint t = kSimStart;
  bool flood_seen = false;
  for (int i = 0; i < 10; ++i) {
    const auto deauth = frames::make_deauth(
        kVictimMac, kApMac, kApMac, frames::ReasonCode::kDeauthLeaving, 1);
    for (const auto& a : detector.observe(deauth, t)) {
      if (a.kind == defense::ThreatKind::kDeauthFlood) flood_seen = true;
    }
    t += milliseconds(20);
  }
  EXPECT_TRUE(flood_seen);
}

TEST(InjectionDetector, TrustedSendersIgnored) {
  defense::InjectionDetector detector;
  detector.mark_trusted(MacAddress::paper_fake_address());
  TimePoint t = kSimStart;
  for (int i = 0; i < 500; ++i) {
    detector.observe(fake_null(kVictimMac), t);
    t += milliseconds(2);
  }
  EXPECT_TRUE(detector.alerts().empty());
}

TEST(InjectionDetector, LegitProtectedTrafficNeverAlerts) {
  defense::InjectionDetector detector;
  TimePoint t = kSimStart;
  frames::Frame f = frames::make_data_to_ds(kApMac, kVictimMac, kApMac,
                                            Bytes(50, 1), 3);
  f.fc.protected_frame = true;  // encrypted = not pollable
  for (int i = 0; i < 2000; ++i) {
    detector.observe(f, t);
    t += milliseconds(1);
  }
  EXPECT_TRUE(detector.alerts().empty());
}

TEST(InjectionDetector, RealertThrottled) {
  defense::InjectionDetectorConfig cfg;
  cfg.realert_interval = seconds(10);
  defense::InjectionDetector detector(cfg);
  TimePoint t = kSimStart;
  for (int i = 0; i < 1000; ++i) {
    detector.observe(fake_null(kVictimMac), t);
    t += milliseconds(7);  // 7 s of attack
  }
  EXPECT_EQ(detector.alerts().size(), 1u);  // one alert, not hundreds
}

// --- Battery guard -------------------------------------------------------------------

TEST(BatteryGuard, EngagesUnderAttackAndSlashesPower) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 86});
  mac::ApConfig apc;
  apc.fast_keys = true;
  sim.add_ap("ap", kApMac, {0, 0}, apc);
  mac::ClientConfig cc;
  cc.fast_keys = true;
  cc.power_save = true;
  cc.idle_timeout = milliseconds(100);
  cc.beacon_wake_window = milliseconds(1);
  Device& victim = sim.add_client("esp", kVictimMac, {4, 0}, cc);
  sim::RadioConfig rig;
  rig.position = {8, 2};
  Device& attacker = sim.add_device(
      {.name = "attacker", .kind = sim::DeviceKind::kAttacker}, kAttackerMac,
      rig);
  sim.establish(victim, seconds(10));

  defense::BatteryGuard guard(sim.scheduler(), victim);
  guard.start();

  core::FakeFrameInjector injector(attacker);
  injector.start_stream(kVictimMac, 500.0);
  sim.run_for(seconds(3));
  EXPECT_TRUE(guard.engaged());

  victim.radio().energy().reset(sim.now());
  sim.run_for(seconds(20));
  const double guarded_mw = victim.radio().energy().average_mw(sim.now());
  // Unguarded this attack pins the radio at ~300 mW; the guard's duty
  // cycle keeps it far below the always-on plateau.
  EXPECT_LT(guarded_mw, 120.0);
  injector.stop_all();
}

TEST(BatteryGuard, DisengagesWhenAttackStops) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 87});
  mac::ApConfig apc;
  apc.fast_keys = true;
  sim.add_ap("ap", kApMac, {0, 0}, apc);
  mac::ClientConfig cc;
  cc.fast_keys = true;
  Device& victim = sim.add_client("esp", kVictimMac, {4, 0}, cc);
  sim::RadioConfig rig;
  rig.position = {8, 2};
  Device& attacker = sim.add_device(
      {.name = "attacker", .kind = sim::DeviceKind::kAttacker}, kAttackerMac,
      rig);
  sim.establish(victim, seconds(10));

  defense::BatteryGuard guard(sim.scheduler(), victim);
  guard.start();
  core::FakeFrameInjector injector(attacker);
  injector.start_stream(kVictimMac, 300.0);
  sim.run_for(seconds(3));
  ASSERT_TRUE(guard.engaged());

  injector.stop_all();
  sim.run_for(seconds(10));
  EXPECT_FALSE(guard.engaged());
  // Device is reachable again.
  EXPECT_FALSE(victim.radio().sleeping());
}

TEST(BatteryGuard, StaysQuietWithoutAttack) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 88});
  mac::ApConfig apc;
  apc.fast_keys = true;
  sim.add_ap("ap", kApMac, {0, 0}, apc);
  mac::ClientConfig cc;
  cc.fast_keys = true;
  Device& victim = sim.add_client("esp", kVictimMac, {4, 0}, cc);
  sim.establish(victim, seconds(10));

  defense::BatteryGuard guard(sim.scheduler(), victim);
  guard.start();
  for (int i = 0; i < 20; ++i) {
    victim.client()->send_msdu(Bytes{1, 2, 3});
    sim.run_for(milliseconds(500));
  }
  EXPECT_FALSE(guard.engaged());
  EXPECT_EQ(guard.stats().engagements, 0u);
}

}  // namespace
}  // namespace politewifi
