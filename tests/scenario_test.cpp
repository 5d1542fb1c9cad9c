// Scenario layer tests: Table 1/2 data, OUI database, city generation,
// body motion physics, typing model and device profiles.
#include <gtest/gtest.h>

#include <set>

#include "scenario/body_motion.h"
#include "scenario/city.h"
#include "scenario/device_profiles.h"
#include "scenario/oui_db.h"
#include "scenario/typing_model.h"

namespace politewifi::scenario {
namespace {

// --- Device profiles (Table 1) ----------------------------------------------------

TEST(DeviceProfiles, Table1MatchesPaper) {
  const auto devices = table1_devices();
  ASSERT_EQ(devices.size(), 5u);
  EXPECT_EQ(devices[0].device_name, "MSI GE62 laptop");
  EXPECT_EQ(devices[0].wifi_module, "Intel AC 3160");
  EXPECT_EQ(devices[1].wifi_module, "Atheros");
  EXPECT_EQ(devices[1].standard, "11n");
  EXPECT_EQ(devices[2].wifi_module, "Marvel 88W8897");
  EXPECT_EQ(devices[3].wifi_module, "Murata KM5D18098");
  EXPECT_EQ(devices[4].wifi_module, "Qualcomm IPQ 4019");
  EXPECT_TRUE(devices[4].is_access_point);
}

TEST(DeviceProfiles, Esp8266IsLowPower) {
  const auto esp = esp8266();
  EXPECT_NEAR(esp.power.sleep_mw, 10.0, 1e-9);   // the Figure 6 baseline
  EXPECT_NEAR(esp.power.idle_mw, 230.0, 1e-9);   // the awake plateau
  EXPECT_EQ(esp.band, phy::Band::k2_4GHz);
}

TEST(DeviceProfiles, CameraSpecs) {
  EXPECT_NEAR(logitech_circle2().battery_mwh, 2400.0, 1e-9);
  EXPECT_NEAR(blink_xt2().battery_mwh, 6000.0, 1e-9);
}

// --- Table 2 census -----------------------------------------------------------------

TEST(Table2, NamedVendorCountsMatchPaper) {
  const auto clients = table2_named_client_vendors();
  ASSERT_EQ(clients.size(), 20u);
  EXPECT_EQ(clients[0].vendor, "Apple");
  EXPECT_EQ(clients[0].count, 143);
  EXPECT_EQ(clients[6].vendor, "Espressif");
  EXPECT_EQ(clients[6].count, 47);  // the §4.2 motivation

  const auto aps = table2_named_ap_vendors();
  ASSERT_EQ(aps.size(), 20u);
  EXPECT_EQ(aps[0].vendor, "Hitron");
  EXPECT_EQ(aps[0].count, 723);
}

TEST(Table2, FullCensusTotalsMatchPaper) {
  const auto clients = table2_full_client_census();
  const auto aps = table2_full_ap_census();
  int client_total = 0, ap_total = 0;
  for (const auto& vc : clients) client_total += vc.count;
  for (const auto& vc : aps) ap_total += vc.count;
  EXPECT_EQ(client_total, 1523);  // paper: 1,523 client devices
  EXPECT_EQ(ap_total, 3805);      // paper: 3,805 access points
  EXPECT_EQ(clients.size(), 147u);  // paper: 147 client vendors
  EXPECT_EQ(aps.size(), 94u);       // paper: 94 AP vendors
}

TEST(Table2, DistinctVendorsAcrossBothIs186) {
  std::set<std::string> vendors;
  for (const auto& vc : table2_full_client_census()) vendors.insert(vc.vendor);
  for (const auto& vc : table2_full_ap_census()) vendors.insert(vc.vendor);
  EXPECT_EQ(vendors.size(), 186u);  // paper: 186 vendors in total
}

TEST(Table2, EveryVendorHasAtLeastOneDevice) {
  for (const auto& vc : table2_full_client_census()) EXPECT_GE(vc.count, 1);
  for (const auto& vc : table2_full_ap_census()) EXPECT_GE(vc.count, 1);
}

// --- OUI database ----------------------------------------------------------------------

TEST(OuiDatabase, RoundTripVendorToMacToVendor) {
  const auto& db = OuiDatabase::instance();
  Rng rng(1);
  for (const char* vendor : {"Apple", "Espressif", "Hitron", "TailS-AA"}) {
    const MacAddress mac = db.make_address(vendor, rng);
    const auto back = db.vendor_of(mac);
    ASSERT_TRUE(back.has_value()) << vendor;
    EXPECT_EQ(*back, vendor);
  }
}

TEST(OuiDatabase, CoversWholeCensus) {
  const auto& db = OuiDatabase::instance();
  for (const auto& vc : table2_full_client_census()) {
    EXPECT_TRUE(db.oui_of(vc.vendor).has_value()) << vc.vendor;
  }
  for (const auto& vc : table2_full_ap_census()) {
    EXPECT_TRUE(db.oui_of(vc.vendor).has_value()) << vc.vendor;
  }
}

TEST(OuiDatabase, NoOuiCollisions) {
  const auto& db = OuiDatabase::instance();
  std::set<std::uint32_t> ouis;
  for (const auto& vendor : db.vendors()) {
    const auto oui = db.oui_of(vendor);
    ASSERT_TRUE(oui.has_value());
    EXPECT_TRUE(ouis.insert(*oui).second) << "collision for " << vendor;
  }
}

TEST(OuiDatabase, UnknownAndLocalAddressesHaveNoVendor) {
  const auto& db = OuiDatabase::instance();
  EXPECT_FALSE(db.vendor_of(MacAddress{0x02, 0, 0, 0, 0, 1}).has_value());
  EXPECT_FALSE(db.vendor_of(MacAddress::broadcast()).has_value());
}

// --- City plan ----------------------------------------------------------------------------

TEST(CityPlan, FullScaleMatchesPaperPopulation) {
  CityConfig cfg;
  cfg.seed = 1;
  const CityPlan plan(CityPlan::grid_route(6, 500), cfg);
  EXPECT_EQ(plan.ap_count(), 3805u);
  EXPECT_EQ(plan.client_count(), 1523u);
  EXPECT_EQ(plan.devices().size(), 5328u);  // the paper's 5,328 nodes
}

TEST(CityPlan, ScaledDownKeepsEveryVendor) {
  CityConfig cfg;
  cfg.scale = 0.01;
  const CityPlan plan(CityPlan::grid_route(2, 400), cfg);
  std::set<std::string> vendors;
  for (const auto& d : plan.devices()) vendors.insert(d.vendor);
  EXPECT_EQ(vendors.size(), 186u);  // min 1 device per vendor
  EXPECT_LT(plan.devices().size(), 400u);
}

TEST(CityPlan, UniqueMacs) {
  CityConfig cfg;
  cfg.scale = 0.05;
  const CityPlan plan(CityPlan::grid_route(2, 400), cfg);
  std::set<MacAddress> macs;
  for (const auto& d : plan.devices()) {
    EXPECT_TRUE(macs.insert(d.mac).second) << "duplicate " << d.mac.to_string();
  }
}

TEST(CityPlan, ClientsAttachToNearbyAps) {
  CityConfig cfg;
  cfg.scale = 0.1;
  cfg.seed = 3;
  const CityPlan plan(CityPlan::grid_route(3, 400), cfg);
  std::size_t attached = 0;
  for (const auto& d : plan.devices()) {
    if (d.is_ap || d.home_ap.is_zero()) continue;
    ++attached;
    // The home AP must exist and be within attach range.
    bool found = false;
    for (const auto& ap : plan.devices()) {
      if (ap.mac == d.home_ap) {
        found = true;
        EXPECT_TRUE(ap.is_ap);
        EXPECT_LE(distance(ap.position, d.position),
                  cfg.client_attach_range_m + 1e-9);
      }
    }
    EXPECT_TRUE(found);
  }
  EXPECT_GT(attached, 0u);
}

TEST(CityPlan, DevicesStayNearRoute) {
  CityConfig cfg;
  cfg.scale = 0.05;
  cfg.max_offset_m = 80.0;
  const CityPlan plan(CityPlan::grid_route(2, 500), cfg);
  for (const auto& d : plan.devices()) {
    // Crude check: within the route's bounding box inflated by the offset.
    EXPECT_GE(d.position.x, -85.0);
    EXPECT_LE(d.position.x, 1085.0);
  }
}

TEST(CityPlan, GridRouteLength) {
  const auto route = CityPlan::grid_route(2, 100);
  const CityPlan plan(route, {.scale = 0.01});
  // 3 horizontal sweeps of 200 m + 2 vertical hops of 100 m.
  EXPECT_NEAR(plan.route_length_m(), 800.0, 1e-9);
}

// --- Typing model ------------------------------------------------------------------------

TEST(TypingModel, KeyRows) {
  EXPECT_EQ(key_row(' '), 0);
  EXPECT_EQ(key_row('z'), 1);
  EXPECT_EQ(key_row('a'), 2);
  EXPECT_EQ(key_row('q'), 3);
  EXPECT_EQ(key_row('7'), 4);
  EXPECT_EQ(key_row('A'), 2);  // case-insensitive
}

TEST(TypingModel, DepthOrderingByReach) {
  // Space involves the most tissue motion; home row the least.
  EXPECT_GT(keystroke_depth_m(' '), keystroke_depth_m('5'));
  EXPECT_GT(keystroke_depth_m('5'), keystroke_depth_m('q'));
  EXPECT_GT(keystroke_depth_m('q'), keystroke_depth_m('z'));
  EXPECT_GT(keystroke_depth_m('z'), keystroke_depth_m('f'));
}

TEST(TypingModel, GeneratesMonotoneTimesAtRoughlyTheRequestedRate) {
  const auto strokes =
      TypingModel::generate("hello world this is a test", {.words_per_minute = 40});
  ASSERT_EQ(strokes.size(), 26u);
  for (std::size_t i = 1; i < strokes.size(); ++i) {
    EXPECT_GT(strokes[i].at, strokes[i - 1].at);
  }
  // 40 wpm = 200 chars/min: 26 chars in roughly 6-14 s.
  const double span = to_seconds(strokes.back().at);
  EXPECT_GT(span, 5.0);
  EXPECT_LT(span, 16.0);
}

TEST(TypingModel, DeterministicPerSeed) {
  const auto a = TypingModel::generate("abc", {.seed = 5});
  const auto b = TypingModel::generate("abc", {.seed = 5});
  EXPECT_EQ(a, b);
}

// --- Body motion --------------------------------------------------------------------------

TEST(BodyMotion, PhaseLookup) {
  // A phase owns [start, end); past the script nobody is there.
  BodyMotionModel model;
  model.add_phase(Activity::kStill, seconds(5));
  model.add_phase(Activity::kAbsent, seconds(5));
  model.add_phase(Activity::kTyping, seconds(10));
  EXPECT_FALSE(model.paths_at(seconds(2)).empty());
  EXPECT_TRUE(model.paths_at(seconds(5)).empty());
  EXPECT_FALSE(model.paths_at(seconds(10)).empty());
  EXPECT_TRUE(model.paths_at(seconds(99)).empty());
  EXPECT_EQ(model.total_duration(), seconds(20));
}

TEST(BodyMotion, AbsentMeansNoDynamicPaths) {
  BodyMotionModel model;
  model.add_phase(Activity::kAbsent, seconds(5));
  EXPECT_TRUE(model.paths_at(seconds(1)).empty());
}

TEST(BodyMotion, PresentActivitiesAddScattererPaths) {
  BodyMotionModel model;
  model.add_phase(Activity::kHold, seconds(5));
  const auto paths = model.paths_at(seconds(1));
  ASSERT_EQ(paths.size(), 2u);  // hand + torso
  EXPECT_GT(paths[0].delay_ns, 0.0);
  EXPECT_GT(paths[0].amplitude, 0.0);
  EXPECT_LT(paths[0].amplitude, 1.0);
}

TEST(BodyMotion, PickupSweepsPathLength) {
  BodyMotionModel model;
  model.add_phase(Activity::kPickup, seconds(4));
  const double d0 = model.paths_at(milliseconds(100))[0].delay_ns;
  const double d1 = model.paths_at(milliseconds(3900))[0].delay_ns;
  // ~0.9 m sweep = ~3 ns of excess delay.
  EXPECT_GT(d1 - d0, 2.0);
}

TEST(BodyMotion, HoldIsMillimetreScale) {
  BodyMotionModel model;
  model.add_phase(Activity::kHold, seconds(10));
  double lo = 1e9, hi = -1e9;
  for (int ms = 0; ms < 10000; ms += 50) {
    const double d = model.paths_at(milliseconds(ms))[0].delay_ns;
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  // Sub-centimetre: well under 0.1 ns of delay spread.
  EXPECT_LT(hi - lo, 0.1);
  EXPECT_GT(hi - lo, 0.0);
}

TEST(BodyMotion, TypingAddsKeystrokeBumps) {
  BodyMotionModel model;
  model.add_phase(Activity::kTyping, seconds(10));
  model.set_keystrokes({{seconds(5), 'q'}});
  const double at_stroke = model.paths_at(seconds(5))[0].delay_ns;
  const double far_away = model.paths_at(seconds(2))[0].delay_ns;
  // The bump adds keystroke_depth_m('q') / 0.3 m/ns ~ 0.09 ns.
  EXPECT_GT(at_stroke - far_away, 0.05);
}

TEST(BodyMotion, BreathingIsPeriodicAtConfiguredRate) {
  BodyMotionModel model({.breathing_bpm = 12.0, .seed = 42});
  model.add_phase(Activity::kBreathing, seconds(60));
  // Sample the torso path delay; its dominant period must be 5 s.
  std::vector<double> samples;
  for (int i = 0; i < 600; ++i) {
    samples.push_back(model.paths_at(milliseconds(i * 100))[1].delay_ns);
  }
  // Count mean crossings: 12 bpm over 60 s = 12 cycles = 24 crossings.
  double m = 0.0;
  for (const double s : samples) m += s;
  m /= double(samples.size());
  int crossings = 0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if ((samples[i - 1] < m) != (samples[i] < m)) ++crossings;
  }
  EXPECT_NEAR(crossings, 24, 3);
}

TEST(BodyMotion, GroundTruthPhasesExposed) {
  BodyMotionModel model;
  model.add_phase(Activity::kStill, seconds(3));
  model.add_phase(Activity::kWalking, seconds(4));
  const auto& phases = model.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[1].activity, Activity::kWalking);
  EXPECT_EQ(phases[1].start, seconds(3));
  EXPECT_EQ(phases[1].end, seconds(7));
}

}  // namespace
}  // namespace politewifi::scenario
