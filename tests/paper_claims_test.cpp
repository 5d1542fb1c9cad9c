// The paper's headline claims, asserted with stated tolerances.
//
// Two kinds of check live here:
//   - Scenario tests for the claims no registered experiment stages:
//     Table 1's per-chipset attack and §2.2's polite-vs-validating link
//     ablation.
//   - Experiment checks: the registered `pw_run` experiment runs
//     in-process at --smoke (the same canonical document the goldens
//     pin) and each claim is a bound on one JSON pointer into it.
// A known gap between the paper and this reproduction is named in the
// failure message of the bound it affects.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/json_parse.h"
#include "core/injector.h"
#include "crypto/wpa2.h"
#include "frames/data.h"
#include "runtime/experiments/all.h"
#include "runtime/registry.h"
#include "runtime/run_context.h"
#include "runtime/runner.h"
#include "scenario/device_profiles.h"
#include "scenario/oui_db.h"
#include "sim/network.h"

namespace politewifi {
namespace {

// --- Table 1: every tested chipset is polite ---------------------------------

/// Attacks one profile's device with 50 fake null frames from an
/// unassociated stranger; returns how many it ACKed.
std::uint64_t acks_for_50_fakes(const scenario::ChipsetProfile& profile,
                                std::uint64_t seed) {
  sim::Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = seed});
  const MacAddress mac = scenario::OuiDatabase::instance().make_address(
      profile.vendor, sim.rng());

  sim::Device* target = nullptr;
  if (profile.is_access_point) {
    mac::ApConfig apc;
    apc.band = profile.band;
    apc.fast_keys = true;
    apc.deauth_unknown_senders = profile.deauth_on_unknown;
    target = &sim.add_ap(profile.device_name, mac, {0, 0}, apc);
  } else {
    sim::RadioConfig rc;
    rc.band = profile.band;
    rc.power = profile.power;
    mac::MacConfig mc;
    mc.sifs_jitter_ns = profile.sifs_jitter_ns;
    target = &sim.add_device({.name = profile.device_name,
                              .vendor = profile.vendor,
                              .chipset = profile.wifi_module,
                              .kind = sim::DeviceKind::kClient},
                             mac, rc, mc);
  }

  sim::RadioConfig rig;
  rig.band = profile.band;
  rig.channel = target->radio().config().channel;
  rig.position = {6, 2};
  sim::Device& attacker = sim.add_device(
      {.name = "attacker", .kind = sim::DeviceKind::kAttacker},
      {0x02, 0x12, 0x34, 0x56, 0x78, 0x9a}, rig);

  core::FakeFrameInjector injector(attacker);
  for (int i = 0; i < 50; ++i) {
    injector.inject_one(target->address());
    sim.run_for(milliseconds(20));
  }
  return target->station().stats().acks_sent;
}

TEST(Table1, EveryProfileAcksEveryFake) {
  // The paper's five Table 1 devices plus §4.2's ESP8266: band, power
  // class, SIFS jitter and AP deauth policy all vary; politeness does not.
  std::vector<scenario::ChipsetProfile> profiles = scenario::table1_devices();
  profiles.push_back(scenario::esp8266());
  ASSERT_EQ(profiles.size(), 6u);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(acks_for_50_fakes(profiles[i], 100 + i), 50u)
        << profiles[i].device_name << " (" << profiles[i].wifi_module << ")";
  }
}

// --- §2.2: a validating receiver stops the fakes and kills the link ----------

struct LinkOutcome {
  std::uint64_t legit_delivered = 0;
  std::uint64_t legit_failed = 0;
  std::uint64_t fake_data_acked = 0;
  std::uint64_t fake_rts_answered = 0;
};

/// A WPA2 link carrying 50 protected frames, then 50 fake nulls and 50
/// fake RTS from a stranger, with the receiver on `policy`.
LinkOutcome run_link(mac::AckPolicyMode policy) {
  constexpr int kFrames = 50;
  const MacAddress sender_mac{1, 1, 1, 1, 1, 1};
  const MacAddress receiver_mac{2, 2, 2, 2, 2, 2};
  const crypto::Ptk ptk = crypto::derive_fast_ptk(sender_mac, receiver_mac);
  // Declared before the simulation so both outlive the stations.
  crypto::Wpa2Session tx_session(ptk);
  crypto::Wpa2Session rx_session(ptk);

  sim::Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 7});
  sim::RadioConfig rc;
  sim::Device& sender = sim.add_device({.name = "ap"}, sender_mac, rc);
  rc.position = {5, 0};
  mac::MacConfig rx_cfg;
  rx_cfg.ack_policy = policy;
  sim::Device& receiver =
      sim.add_device({.name = "client"}, receiver_mac, rc, rx_cfg);
  receiver.station().set_validation_session(&rx_session);

  rc.position = {7, 3};
  sim::Device& attacker = sim.add_device(
      {.name = "attacker", .kind = sim::DeviceKind::kAttacker},
      {0x02, 0xde, 0xad, 0xbe, 0xef, 0x05}, rc);
  core::FakeFrameInjector data_injector(attacker);
  core::FakeFrameInjector rts_injector(attacker, {.use_rts = true});

  for (int i = 0; i < kFrames; ++i) {
    frames::Frame f = frames::make_data_to_ds(
        receiver_mac, sender_mac, receiver_mac, Bytes(100, 0x33),
        sender.station().next_sequence());
    tx_session.protect(f);
    sender.station().send(std::move(f), phy::kOfdm24);
    sim.run_for(milliseconds(60));
  }
  const auto& rx_stats = receiver.station().stats();
  const auto acks_before = rx_stats.acks_sent;
  for (int i = 0; i < kFrames; ++i) {
    data_injector.inject_one(receiver_mac);
    sim.run_for(milliseconds(5));
  }
  const auto cts_before = rx_stats.cts_sent;
  for (int i = 0; i < kFrames; ++i) {
    rts_injector.inject_one(receiver_mac);
    sim.run_for(milliseconds(5));
  }
  sim.run_for(seconds(1));

  return {.legit_delivered = sender.station().stats().tx_success,
          .legit_failed = sender.station().stats().tx_failures,
          .fake_data_acked = rx_stats.acks_sent - acks_before,
          .fake_rts_answered = rx_stats.cts_sent - cts_before};
}

TEST(LinkAblation, PoliteReceiverKeepsLinkAndAcksFakes) {
  const LinkOutcome polite = run_link(mac::AckPolicyMode::kPoliteHardware);
  EXPECT_EQ(polite.legit_delivered, 50u);
  EXPECT_EQ(polite.legit_failed, 0u);
  EXPECT_GE(polite.fake_data_acked, 49u);
  EXPECT_GE(polite.fake_rts_answered, 49u);
}

TEST(LinkAblation, ValidatingReceiverKillsLinkYetAnswersRts) {
  // Every genuine ACK leaves hundreds of µs after SIFS, so the sender's
  // ACK timeout fires first. A stray late ACK can land while a retry is
  // in flight and "succeed"; two of those do not change the story.
  const LinkOutcome validating = run_link(mac::AckPolicyMode::kValidatingMac);
  EXPECT_LE(validating.legit_delivered, 2u);
  EXPECT_EQ(validating.fake_data_acked, 0u);
  // Control frames cannot be encrypted, so fake RTS still get a CTS.
  EXPECT_GE(validating.fake_rts_answered, 49u);
}

// --- Experiment checks -------------------------------------------------------

/// The canonical --smoke document of a registered experiment, run
/// in-process; null (and a test failure) when the run does not succeed.
common::Json smoke_document(const std::string& experiment,
                            const std::vector<common::Flag>& flags = {}) {
  runtime::register_builtin_experiments();
  const auto run = runtime::run_experiment(experiment, flags, /*smoke=*/true);
  if (run.exit_code != 0) {
    ADD_FAILURE() << experiment << " exited " << run.exit_code << ": "
                  << run.error;
    return {};
  }
  std::string error;
  auto doc = common::parse_json(run.json, &error);
  if (!doc.has_value()) {
    ADD_FAILURE() << experiment << ": unparseable document: " << error;
    return {};
  }
  return std::move(*doc);
}

/// Follows a JSON pointer ("/results/devices/0/error_m") through objects
/// and arrays; nullptr when a step is missing.
const common::Json* find_path(const common::Json& doc,
                              std::string_view pointer) {
  const common::Json* node = &doc;
  while (!pointer.empty() && node != nullptr) {
    pointer.remove_prefix(1);  // the '/'
    const std::size_t end = pointer.find('/');
    const std::string step(pointer.substr(0, end));
    pointer.remove_prefix(end == std::string_view::npos ? pointer.size()
                                                        : end);
    if (node->is_array()) {
      std::int64_t index = -1;
      const bool in_range = common::parse_int64(step, &index) && index >= 0 &&
                            static_cast<std::size_t>(index) < node->size();
      node = in_range ? &node->at(static_cast<std::size_t>(index)) : nullptr;
    } else {
      node = node->find(step);
    }
  }
  return node;
}

/// The number at `pointer`. A missing or non-numeric value fails the test
/// by name and reads as NaN, which no bound accepts.
double number(const common::Json& doc, std::string_view pointer) {
  const common::Json* node = find_path(doc, pointer);
  if (node == nullptr || (node->kind() != common::Json::Kind::kInt &&
                          node->kind() != common::Json::Kind::kDouble)) {
    ADD_FAILURE() << pointer << ": missing or not a number";
    return std::numeric_limits<double>::quiet_NaN();
  }
  return node->as_double();
}

/// The boolean at `pointer`; false (and a test failure) when missing.
bool flag(const common::Json& doc, std::string_view pointer) {
  const common::Json* node = find_path(doc, pointer);
  if (node == nullptr || node->kind() != common::Json::Kind::kBool) {
    ADD_FAILURE() << pointer << ": missing or not a boolean";
    return false;
  }
  return node->as_bool();
}

/// The string at `pointer`; empty (and a test failure) when missing.
std::string text(const common::Json& doc, std::string_view pointer) {
  const common::Json* node = find_path(doc, pointer);
  if (node == nullptr || node->kind() != common::Json::Kind::kString) {
    ADD_FAILURE() << pointer << ": missing or not a string";
    return {};
  }
  return node->as_string();
}

// Fig 2: the victim ACKs the stranger's fake frame one SIFS after it
// ends, addressed to the spoofed source. The gap is measured from the
// fake frame's end at the stranger to the ACK's start at the victim, so
// it is the 2.4 GHz OFDM SIFS of 10 us plus one propagation delay; the
// scene's 5.7 m takes 19 ns, and the bound allows up to 30 m.
TEST(PaperClaims, QuickstartAckFollowsOneSifsToTheSpoofedSource) {
  const common::Json doc = smoke_document("quickstart");
  EXPECT_TRUE(flag(doc, "/results/stranger_acked"));
  const double gap_us = number(doc, "/results/ack_gap_us");
  EXPECT_GE(gap_us, 10.0) << "an ACK before SIFS has elapsed";
  EXPECT_LE(gap_us, 10.1) << "more than SIFS plus 30 m of propagation";
  EXPECT_EQ(text(doc, "/results/ack_receiver_address"), "aa:bb:bb:bb:bb:bb");
}

// Table 2: every surveyed device answers the fake frames (the paper's
// 5,328 of 5,328). The smoke survey must keep at least 97%.
TEST(PaperClaims, WardrivingDevicesRespondToFakes) {
  const common::Json doc = smoke_document("wardriving");
  EXPECT_GT(number(doc, "/results/discovered"), 0.0);
  EXPECT_GE(number(doc, "/results/response_rate"), 0.97);
}

// Fig 5 / §4.1: keystrokes recovered from the CSI of elicited ACKs.
TEST(PaperClaims, KeystrokeInferenceRecoversTyping) {
  const common::Json doc = smoke_document("keystroke_inference");
  EXPECT_GT(number(doc, "/results/score/f1"), 0.6);
}

// Fig 6: victim power vs fake-frame rate (ESP8266-class, power save on).
TEST(PaperClaims, BatteryDrainPowerVsRate) {
  const common::Json doc = smoke_document("battery_drain");
  constexpr const char* kIdleGap =
      "known gap: the unattacked victim idles at 12.2 mW against the "
      "paper's ~10 mW, so the 900 pps ratio reads 29x against its 35x";
  ASSERT_EQ(number(doc, "/results/rate_sweep/0/rate_pps"), 0.0);
  ASSERT_EQ(number(doc, "/results/rate_sweep/5/rate_pps"), 900.0);
  const double idle_mw = number(doc, "/results/rate_sweep/0/avg_power_mw");
  EXPECT_GT(idle_mw, 5.0) << kIdleGap;
  EXPECT_LT(idle_mw, 40.0) << kIdleGap;
  // Paper: ~360 mW at 900 pps.
  const double flood_mw = number(doc, "/results/rate_sweep/5/avg_power_mw");
  EXPECT_GT(flood_mw, 300.0);
  EXPECT_LT(flood_mw, 450.0);
  const double increase = number(doc, "/results/power_increase_x");
  EXPECT_GT(increase, 10.0) << kIdleGap;
  EXPECT_LT(increase, 50.0) << kIdleGap;
}

// §4.2: Logitech Circle 2 and Blink XT2 drain in ~6.7 h and ~16.7 h.
TEST(PaperClaims, BatteryDrainCameraProjections) {
  const common::Json doc = smoke_document("battery_drain");
  EXPECT_NEAR(number(doc, "/results/projections/0/hours_to_empty"), 6.7,
              0.25 * 6.7);
  EXPECT_NEAR(number(doc, "/results/projections/1/hours_to_empty"), 16.7,
              0.25 * 16.7);
}

// §4.3: one modified hub senses occupancy, a walk and a sleeper's
// breathing through two stock devices' ACKs.
TEST(PaperClaims, WifiSensingMotionOccupancyBreathing) {
  const common::Json doc = smoke_document("wifi_sensing");
  EXPECT_TRUE(flag(doc, "/results/living_room/occupied"));
  const common::Json* events =
      find_path(doc, "/results/living_room/motion_events_s");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 1u) << "one walk, starting at 8 s";
  EXPECT_NEAR(events->at(0).as_double(), 8.0, 2.0);
  EXPECT_NEAR(number(doc, "/results/bedroom/breathing/rate_bpm"),
              number(doc, "/results/bedroom/truth_bpm"), 1.5);
}

// The sleeper's rate is bounded by the band estimate_breathing scans
// (8-30 bpm): at both edges the estimate tracks the truth, and a rate
// outside the band is refused before anything runs instead of being
// reported as the nearest in-band rate.
TEST(PaperClaims, WifiSensingBreathingRateStaysInTheEstimatorBand) {
  runtime::register_builtin_experiments();
  const auto experiment =
      runtime::ExperimentRegistry::instance().create("wifi_sensing");
  ASSERT_NE(experiment, nullptr);
  for (const std::string outside : {"7", "31"}) {
    runtime::ResolvedRun resolved;
    std::string error;
    EXPECT_FALSE(runtime::resolve_run(experiment->spec(),
                                      {{"breathing_bpm", outside}},
                                      /*smoke=*/true, &resolved, &error))
        << outside;
    EXPECT_NE(error.find("--breathing_bpm: " + outside + " is out of range"),
              std::string::npos)
        << error;
  }
  for (const std::string edge : {"8", "30"}) {
    const common::Json doc =
        smoke_document("wifi_sensing", {{"breathing_bpm", edge}});
    EXPECT_NEAR(number(doc, "/results/bedroom/breathing/rate_bpm"),
                std::stod(edge), 1.5)
        << edge;
  }
}

// Extension (Wi-Peep): ACK time-of-flight localizes every device in the
// house from outside it.
TEST(PaperClaims, WipeepLocalizesEveryDevice) {
  const common::Json doc = smoke_document("wipeep_localization");
  const common::Json* devices = find_path(doc, "/results/devices");
  ASSERT_NE(devices, nullptr);
  ASSERT_EQ(devices->size(), 4u);
  for (std::size_t i = 0; i < devices->size(); ++i) {
    EXPECT_LT(number(*devices, "/" + std::to_string(i) + "/error_m"), 10.0)
        << "device " << i;
  }
}

// Extension (the paper's "future research"): a duty-cycling guard cannot
// stop the ACKs but slashes the drain.
TEST(PaperClaims, DefendingGuardSlashesDrainPower) {
  const common::Json doc = smoke_document("defending");
  ASSERT_FALSE(flag(doc, "/results/round3_battery/0/guarded"));
  ASSERT_TRUE(flag(doc, "/results/round3_battery/1/guarded"));
  const double unguarded_mw =
      number(doc, "/results/round3_battery/0/avg_power_mw");
  EXPECT_GT(unguarded_mw, 250.0);
  EXPECT_LT(number(doc, "/results/round3_battery/1/avg_power_mw"),
            unguarded_mw / 4.0);
}

}  // namespace
}  // namespace politewifi
