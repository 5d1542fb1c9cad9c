// Tests for the later-added features: ARF rate adaptation and
// randomized-MAC survey realism.
#include <gtest/gtest.h>

#include "core/monitor.h"
#include "mac/rate_control.h"
#include "scenario/city.h"
#include "sim/network.h"

namespace politewifi {
namespace {

using sim::Device;
using sim::Simulation;

// --- ARF rate control ------------------------------------------------------------

TEST(Arf, ClimbsAfterSuccessStreak) {
  mac::ArfRateController arf({.up_after = 3, .down_after = 2,
                              .initial_index = 0});
  EXPECT_EQ(arf.current(), phy::kOfdm6);
  for (int i = 0; i < 3; ++i) arf.on_success();
  EXPECT_EQ(arf.current(), phy::kOfdm9);
  for (int i = 0; i < 3; ++i) arf.on_success();
  EXPECT_EQ(arf.current(), phy::kOfdm12);
}

TEST(Arf, DropsAfterFailureStreak) {
  mac::ArfRateController arf({.up_after = 10, .down_after = 2,
                              .initial_index = 4});
  EXPECT_EQ(arf.current(), phy::kOfdm24);
  arf.on_failure();
  EXPECT_EQ(arf.current(), phy::kOfdm24);  // one failure tolerated
  arf.on_failure();
  EXPECT_EQ(arf.current(), phy::kOfdm18);
}

TEST(Arf, FailedProbeRevertsImmediately) {
  mac::ArfRateController arf({.up_after = 2, .down_after = 3,
                              .initial_index = 0});
  arf.on_success();
  arf.on_success();
  EXPECT_EQ(arf.current(), phy::kOfdm9);  // probing up
  arf.on_failure();                        // single failure right after probe
  EXPECT_EQ(arf.current(), phy::kOfdm6);
}

TEST(Arf, ClampedAtLadderEnds) {
  mac::ArfRateController arf({.up_after = 1, .down_after = 1,
                              .initial_index = 7});
  arf.on_success();
  EXPECT_EQ(arf.current(), phy::kOfdm54);  // already at the top
  mac::ArfRateController low({.up_after = 1, .down_after = 1,
                              .initial_index = 0});
  low.on_failure();
  EXPECT_EQ(low.current(), phy::kOfdm6);  // already at the bottom
}

TEST(Arf, StationClimbsOnCleanLink) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 123});
  sim::RadioConfig a_rc;
  mac::MacConfig a_mc;
  a_mc.adaptive_rate = true;
  a_mc.arf = {.up_after = 5, .down_after = 2, .initial_index = 0};
  Device& a = sim.add_device({.name = "a"}, {1, 1, 1, 1, 1, 1}, a_rc, a_mc);
  sim::RadioConfig b_rc;
  b_rc.position = {3, 0};  // clean, close link
  Device& b = sim.add_device({.name = "b"}, {2, 2, 2, 2, 2, 2}, b_rc);
  (void)b;

  for (int i = 0; i < 60; ++i) {
    a.station().send(frames::make_data_to_ds({2, 2, 2, 2, 2, 2},
                                             {1, 1, 1, 1, 1, 1},
                                             {2, 2, 2, 2, 2, 2}, Bytes(100, 1),
                                             a.station().next_sequence()),
                     phy::kOfdm6);
    sim.run_for(milliseconds(20));
  }
  // 60 clean exchanges with up_after=5 climb well up the ladder.
  EXPECT_GE(a.station().rate_controller().ladder_index(), 5);
  EXPECT_EQ(a.station().stats().tx_failures, 0u);
}

TEST(Arf, StationFallsBackOnMarginalLink) {
  sim::SimulationConfig cfg;
  cfg.seed = 124;
  cfg.medium.shadowing_sigma_db = 0.0;
  Simulation sim(cfg);
  sim::RadioConfig a_rc;
  mac::MacConfig a_mc;
  a_mc.adaptive_rate = true;
  a_mc.arf = {.up_after = 10, .down_after = 2, .initial_index = 7};
  Device& a = sim.add_device({.name = "a"}, {1, 1, 1, 1, 1, 1}, a_rc, a_mc);
  sim::RadioConfig b_rc;
  b_rc.position = {110, 0};  // 54 Mb/s cannot survive here; 6 Mb/s can
  Device& b = sim.add_device({.name = "b"}, {2, 2, 2, 2, 2, 2}, b_rc);
  (void)b;

  for (int i = 0; i < 40; ++i) {
    a.station().send(frames::make_data_to_ds({2, 2, 2, 2, 2, 2},
                                             {1, 1, 1, 1, 1, 1},
                                             {2, 2, 2, 2, 2, 2},
                                             Bytes(400, 1),
                                             a.station().next_sequence()),
                     phy::kOfdm54);
    sim.run_for(milliseconds(60));
  }
  // ARF migrated down the ladder to something that works.
  EXPECT_LE(a.station().rate_controller().ladder_index(), 3);
  EXPECT_GT(a.station().stats().tx_success, 10u);
}

// --- Randomized MACs in the survey -------------------------------------------------

TEST(City, RandomizedMacsHaveNoVendor) {
  scenario::CityConfig cfg;
  cfg.scale = 0.02;
  cfg.randomized_mac_fraction = 0.5;
  cfg.seed = 9;
  const scenario::CityPlan plan(scenario::CityPlan::grid_route(1, 300), cfg);

  std::size_t randomized = 0, clients = 0;
  for (const auto& d : plan.devices()) {
    if (d.is_ap) {
      EXPECT_FALSE(d.mac.locally_administered());
      continue;
    }
    ++clients;
    if (d.mac.locally_administered()) {
      ++randomized;
      EXPECT_FALSE(scenario::OuiDatabase::instance().vendor_of(d.mac));
    }
  }
  // Roughly half the clients randomized.
  EXPECT_GT(randomized, clients / 4);
  EXPECT_LT(randomized, 3 * clients / 4);
}

}  // namespace
}  // namespace politewifi
