// Unit tests for the core attack toolkit: injector, monitor hub, scanner,
// ACK sniffer attribution, vendor statistics, stream scheduling, and the
// survey's injection round-robin.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "core/ack_sniffer.h"
#include "core/injector.h"
#include "core/scanner.h"
#include "core/vendor_stats.h"
#include "core/wardrive.h"
#include "sim/network.h"

namespace politewifi::core {
namespace {

using sim::Device;
using sim::Simulation;

constexpr MacAddress kVictimMac{0x3c, 0x28, 0x6d, 0xaa, 0xbb, 0xcc};
constexpr MacAddress kVictim2Mac{0x3c, 0x28, 0x6d, 0xaa, 0xbb, 0xdd};
constexpr MacAddress kAttackerMac{0x02, 0xde, 0xad, 0xbe, 0xef, 0x01};

struct Rig {
  Simulation sim{{.medium = {.shadowing_sigma_db = 0.0}, .seed = 100}};
  Device* victim = nullptr;
  Device* attacker = nullptr;

  Rig() {
    sim::RadioConfig rc;
    rc.position = {5, 0};
    victim = &sim.add_device({.name = "victim"}, kVictimMac, rc);
    sim::RadioConfig rig;
    rig.position = {0, 0};
    attacker = &sim.add_device(
        {.name = "attacker", .kind = sim::DeviceKind::kAttacker},
        kAttackerMac, rig);
  }
};

// --- Injector ------------------------------------------------------------------

TEST(Injector, CraftsPaperExactNullFrame) {
  Rig rig;
  auto& trace = rig.sim.trace();
  FakeFrameInjector injector(*rig.attacker);
  injector.inject_one(kVictimMac);
  rig.sim.run_for(milliseconds(1));

  ASSERT_GE(trace.entries().size(), 1u);
  const auto& f = trace.entries()[0].frame;
  EXPECT_TRUE(f.fc.is_null_function());
  EXPECT_FALSE(f.fc.protected_frame);
  EXPECT_EQ(f.addr1, kVictimMac);
  EXPECT_EQ(f.addr2, MacAddress::paper_fake_address());
  EXPECT_TRUE(f.body.empty());
}

TEST(Injector, CustomSpoofedSource) {
  Rig rig;
  auto& trace = rig.sim.trace();
  const MacAddress spoof{0xde, 0xad, 0x00, 0x00, 0x00, 0x01};
  FakeFrameInjector injector(*rig.attacker, {.spoofed_source = spoof});
  injector.inject_one(kVictimMac);
  rig.sim.run_for(milliseconds(1));
  ASSERT_GE(trace.entries().size(), 2u);  // fake + ACK
  EXPECT_EQ(trace.entries()[0].frame.addr2, spoof);
  EXPECT_EQ(trace.entries()[1].frame.addr1, spoof);  // ACK to the spoof
}

TEST(Injector, StreamHoldsConfiguredRate) {
  Rig rig;
  FakeFrameInjector injector(*rig.attacker);
  injector.start_stream(kVictimMac, 200.0);
  rig.sim.run_for(seconds(2));
  injector.stop_stream(kVictimMac);
  const auto injected = injector.stats().frames_injected;
  EXPECT_NEAR(double(injected), 400.0, 8.0);
  // Stream really stopped.
  rig.sim.run_for(seconds(1));
  EXPECT_EQ(injector.stats().frames_injected, injected);
}

TEST(Injector, RetargetingStreamReplacesRate) {
  Rig rig;
  FakeFrameInjector injector(*rig.attacker);
  injector.start_stream(kVictimMac, 50.0);
  rig.sim.run_for(seconds(1));
  injector.start_stream(kVictimMac, 500.0);  // retarget, same victim
  const auto before = injector.stats().frames_injected;
  rig.sim.run_for(seconds(1));
  const auto delta = injector.stats().frames_injected - before;
  EXPECT_NEAR(double(delta), 500.0, 15.0);
}

TEST(Injector, ParallelStreamsToTwoVictims) {
  Rig rig;
  sim::RadioConfig rc;
  rc.position = {6, 2};
  Device& victim2 = rig.sim.add_device({.name = "victim2"}, kVictim2Mac, rc);
  FakeFrameInjector injector(*rig.attacker);
  injector.start_stream(kVictimMac, 100.0);
  injector.start_stream(kVictim2Mac, 100.0);
  rig.sim.run_for(seconds(2));
  injector.stop_all();
  EXPECT_GT(rig.victim->station().stats().acks_sent, 150u);
  EXPECT_GT(victim2.station().stats().acks_sent, 150u);
}

TEST(Injector, SequenceNumbersAdvance) {
  Rig rig;
  auto& trace = rig.sim.trace();
  FakeFrameInjector injector(*rig.attacker);
  for (int i = 0; i < 3; ++i) injector.inject_one(kVictimMac);
  rig.sim.run_for(milliseconds(1));
  std::vector<int> sns;
  for (const auto& e : trace.entries()) {
    if (e.frame.fc.is_null_function()) sns.push_back(e.frame.seq.sequence);
  }
  ASSERT_EQ(sns.size(), 3u);
  EXPECT_EQ(sns[1], sns[0] + 1);
  EXPECT_EQ(sns[2], sns[1] + 1);
}

// --- MonitorHub ----------------------------------------------------------------

TEST(Monitor, FanOutToMultipleTapsAndRemoval) {
  Rig rig;
  MonitorHub hub(rig.attacker->station());
  int a = 0, b = 0;
  hub.add_tap([&a](const frames::Frame&, const phy::RxVector&) { ++a; });
  const auto id =
      hub.add_tap([&b](const frames::Frame&, const phy::RxVector&) { ++b; });

  rig.victim->station().transmit_now(
      frames::make_null_function(kAttackerMac, kVictimMac, 1), phy::kOfdm24);
  rig.sim.run_for(milliseconds(1));
  EXPECT_GE(a, 1);
  EXPECT_EQ(a, b);

  hub.remove_tap(id);
  const int b_before = b;
  rig.victim->station().transmit_now(
      frames::make_null_function(kAttackerMac, kVictimMac, 2), phy::kOfdm24);
  rig.sim.run_for(milliseconds(1));
  EXPECT_GT(a, 1);
  EXPECT_EQ(b, b_before);
}

// --- Scanner --------------------------------------------------------------------

TEST(Scanner, ClassifiesApFromBeaconAndClientFromToDs) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 101});
  mac::ApConfig apc;
  apc.fast_keys = true;
  Device& ap = sim.add_ap("ap", {0xf2, 0x6e, 0x0b, 1, 2, 3}, {0, 0}, apc);
  mac::ClientConfig cc;
  cc.fast_keys = true;
  Device& client = sim.add_client("client", kVictimMac, {4, 0}, cc);

  sim::RadioConfig rig;
  rig.position = {6, 2};
  Device& monitor = sim.add_device(
      {.name = "monitor", .kind = sim::DeviceKind::kSniffer}, kAttackerMac,
      rig);
  MonitorHub hub(monitor.station());
  DeviceScanner scanner(hub, monitor.radio(), {kAttackerMac});

  sim.establish(client, seconds(10));
  sim.run_for(seconds(1));

  const auto& devices = scanner.devices();
  ASSERT_TRUE(devices.count(ap.address()));
  ASSERT_TRUE(devices.count(client.address()));
  EXPECT_TRUE(devices.at(ap.address()).is_ap);
  EXPECT_FALSE(devices.at(client.address()).is_ap);
  EXPECT_EQ(scanner.count_aps(), 1u);
  EXPECT_EQ(scanner.count_clients(), 1u);
  EXPECT_GT(devices.at(ap.address()).frames_seen, 1u);
}

TEST(Scanner, IgnoredAddressesNeverAppear) {
  Rig rig;
  MonitorHub hub(rig.attacker->station());
  DeviceScanner scanner(hub, rig.attacker->radio(),
                        {kAttackerMac, MacAddress::paper_fake_address()});
  FakeFrameInjector injector(*rig.attacker);
  injector.inject_one(kVictimMac);
  rig.sim.run_for(milliseconds(5));
  // Neither our own MAC nor the spoofed source shows up as a "device".
  EXPECT_EQ(scanner.devices().count(MacAddress::paper_fake_address()), 0u);
  EXPECT_EQ(scanner.devices().count(kAttackerMac), 0u);
}

TEST(Scanner, DiscoveryCallbackFiresOncePerDevice) {
  Rig rig;
  MonitorHub hub(rig.attacker->station());
  DeviceScanner scanner(hub, rig.attacker->radio(), {kAttackerMac});
  int discoveries = 0;
  scanner.set_on_discovery(
      [&discoveries](const DiscoveredDevice&) { ++discoveries; });
  for (int i = 0; i < 5; ++i) {
    rig.victim->station().transmit_now(
        frames::make_null_function(kAttackerMac, kVictimMac,
                                   std::uint16_t(i)),
        phy::kOfdm24);
    rig.sim.run_for(milliseconds(2));
  }
  EXPECT_EQ(discoveries, 1);
}

TEST(Scanner, VendorResolvedThroughOuiDatabase) {
  Rig rig;
  Rng mac_rng(4);
  const MacAddress apple = scenario::OuiDatabase::instance().make_address(
      "Apple", mac_rng);
  sim::RadioConfig rc;
  rc.position = {3, 3};
  Device& dev = rig.sim.add_device({.name = "iphone"}, apple, rc);

  MonitorHub hub(rig.attacker->station());
  DeviceScanner scanner(hub, rig.attacker->radio(), {kAttackerMac});
  dev.station().transmit_now(
      frames::make_null_function(kAttackerMac, apple, 1), phy::kOfdm24);
  rig.sim.run_for(milliseconds(2));

  ASSERT_TRUE(scanner.devices().count(apple));
  EXPECT_EQ(scanner.devices().at(apple).vendor, "Apple");
}

// --- AckSniffer -------------------------------------------------------------------

TEST(AckSniffer, IgnoresAcksToOtherReceivers) {
  Rig rig;
  MonitorHub hub(rig.attacker->station());
  AckSniffer sniffer(hub, rig.attacker->radio(),
                     MacAddress::paper_fake_address());
  // A third-party exchange: victim ACKs someone who is not our spoof.
  const MacAddress other{9, 9, 9, 9, 9, 9};
  rig.victim->station().transmit_now(frames::make_ack(other), phy::kOfdm24);
  rig.sim.run_for(milliseconds(2));
  EXPECT_EQ(sniffer.total(), 0u);
}

// --- Vendor statistics ----------------------------------------------------------------

TEST(VendorStats, TallyAndTopWithOthers) {
  std::unordered_map<MacAddress, DiscoveredDevice> devices;
  auto add = [&](std::uint8_t i, const char* vendor, bool ap) {
    DiscoveredDevice d;
    d.mac = MacAddress{0, 0, 0, 0, 0, i};
    d.vendor = vendor;
    d.is_ap = ap;
    devices[d.mac] = d;
  };
  add(1, "Apple", false);
  add(2, "Apple", false);
  add(3, "Apple", false);
  add(4, "Google", false);
  add(5, "Google", false);
  add(6, "ecobee", false);
  add(7, "Hitron", true);  // AP — excluded from the client tally

  const auto table = tally_vendors(devices, /*aps=*/false);
  EXPECT_EQ(table.total, 6u);
  EXPECT_EQ(table.distinct_vendors, 3u);
  EXPECT_EQ(table.rows[0].vendor, "Apple");
  EXPECT_EQ(table.rows[0].devices, 3u);

  const auto top = table.top_with_others(2);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[2].vendor, "Others");
  EXPECT_EQ(top[2].devices, 1u);  // ecobee folded in
}

TEST(VendorStats, PrintsPaperLayout) {
  std::unordered_map<MacAddress, DiscoveredDevice> devices;
  DiscoveredDevice d;
  d.mac = MacAddress{0, 0, 0, 0, 0, 1};
  d.vendor = "Apple";
  devices[d.mac] = d;
  const auto clients = tally_vendors(devices, false);
  const auto aps = tally_vendors(devices, true);
  std::ostringstream os;
  print_table2(os, clients, aps);
  EXPECT_NE(os.str().find("WiFi Client Device"), std::string::npos);
  EXPECT_NE(os.str().find("Apple"), std::string::npos);
  EXPECT_NE(os.str().find("Total"), std::string::npos);
}

// --- RTS variant through the toolkit ----------------------------------------------------

TEST(Injector, RtsStreamElicitsCtsStream) {
  Rig rig;
  FakeFrameInjector injector(*rig.attacker, {.use_rts = true});
  injector.start_stream(kVictimMac, 100.0);
  rig.sim.run_for(seconds(1));
  injector.stop_all();
  EXPECT_GT(rig.victim->station().stats().cts_sent, 80u);
  EXPECT_EQ(rig.victim->station().stats().acks_sent, 0u);
}

// --- Injection round-robin ------------------------------------------------------

/// The survey's original injection order, kept as the reference model:
/// every discovered target stays in the list for good, a `done` flag
/// latches retirement, and each tick rescans the whole list from the
/// slot after the cursor.
class RescanModel {
 public:
  void add(const MacAddress& mac) { queue_.push_back(Entry{mac}); }

  template <typename Retired, typename Eligible>
  std::optional<MacAddress> pick(Retired&& retired, Eligible&& eligible) {
    for (std::size_t scanned = 0;
         scanned < queue_.size() && !queue_.empty(); ++scanned) {
      next_ = (next_ + 1) % queue_.size();
      Entry& entry = queue_[next_];
      if (entry.done) continue;
      if (retired(entry.mac, entry.attempts)) {
        entry.done = true;
        continue;
      }
      if (!eligible(entry.mac)) continue;
      ++entry.attempts;
      return entry.mac;
    }
    return std::nullopt;
  }

 private:
  struct Entry {
    MacAddress mac;
    int attempts = 0;
    bool done = false;
  };
  std::vector<Entry> queue_;
  std::size_t next_ = 0;
};

MacAddress target_mac(std::uint32_t id) {
  return MacAddress{0x02, 0x7a, 0x00, static_cast<std::uint8_t>(id >> 16),
                    static_cast<std::uint8_t>(id >> 8),
                    static_cast<std::uint8_t>(id)};
}

/// Drives TargetRotation and the rescan model through one random script
/// of discoveries (in bursts), responses and ticks under a small attempt
/// cap, asserting the same pick at every tick. Returns how many ticks
/// found every earlier target retired and two or more new ones waiting —
/// the case where a cursor reset picks the wrong newcomer first.
int expect_same_injections(std::uint64_t seed) {
  Rng rng(seed);
  const int cap = static_cast<int>(rng.uniform_int(1, 4));
  TargetRotation rotation;
  RescanModel model;
  std::set<MacAddress> responded;
  std::uint32_t discovered = 0;
  int all_retired_then_burst = 0;
  for (int tick = 0; tick < 600; ++tick) {
    const bool all_retired = rotation.live() == 0 && discovered > 0;
    const int burst =
        rng.bernoulli(0.25) ? static_cast<int>(rng.uniform_int(1, 3)) : 0;
    for (int i = 0; i < burst; ++i) {
      rotation.add(target_mac(discovered));
      model.add(target_mac(discovered));
      ++discovered;
    }
    if (all_retired && burst >= 2) ++all_retired_then_burst;
    if (discovered > 0 && rng.bernoulli(0.15)) {
      responded.insert(target_mac(
          static_cast<std::uint32_t>(rng.uniform_int(0, discovered - 1))));
    }
    const auto retired = [&](const MacAddress& mac, int attempts) {
      return responded.count(mac) > 0 || attempts >= cap;
    };
    // Eligibility is a pure function of (tick, target): fresh and loud
    // enough about two times in three.
    const auto eligible = [tick](const MacAddress& mac) {
      return (mac.octets()[5] * 7u + mac.octets()[4] * 13u +
              static_cast<unsigned>(tick) * 5u) % 3u != 0u;
    };
    const std::optional<MacAddress> want = model.pick(retired, eligible);
    const std::optional<MacAddress> got = rotation.pick(retired, eligible);
    EXPECT_EQ(got, want) << "seed " << seed << " tick " << tick;
    if (got != want) break;
  }
  return all_retired_then_burst;
}

TEST(TargetRotation, InjectsInTheSameOrderAsTheRescan) {
  int all_retired_then_burst = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    all_retired_then_burst += expect_same_injections(seed);
  }
  EXPECT_GT(all_retired_then_burst, 20)
      << "no script retired every target and then discovered a burst";
}

TEST(TargetRotation, AllRetiredThenABurstStartsAtTheFirstNewcomer) {
  // Seed 102's survey hit this: every target retired, then two devices
  // discovered before the next tick. The rescan visits the newcomers in
  // discovery order from wherever its cursor stood.
  TargetRotation rotation;
  RescanModel model;
  const auto retired = [](const MacAddress& mac, int) {
    return mac == target_mac(0) || mac == target_mac(1) ||
           mac == target_mac(2);
  };
  const auto eligible = [](const MacAddress&) { return true; };
  for (std::uint32_t id = 0; id < 3; ++id) {
    rotation.add(target_mac(id));
    model.add(target_mac(id));
  }
  EXPECT_FALSE(rotation.pick(retired, eligible).has_value());
  EXPECT_FALSE(model.pick(retired, eligible).has_value());
  EXPECT_EQ(rotation.live(), 0u);
  for (std::uint32_t id = 3; id < 5; ++id) {
    rotation.add(target_mac(id));
    model.add(target_mac(id));
  }
  EXPECT_EQ(model.pick(retired, eligible), target_mac(3));
  EXPECT_EQ(rotation.pick(retired, eligible), target_mac(3));
  EXPECT_EQ(model.pick(retired, eligible), target_mac(4));
  EXPECT_EQ(rotation.pick(retired, eligible), target_mac(4));
}

TEST(TargetRotation, FirstRoundStartsAtTheSecondDiscoveredTarget) {
  TargetRotation rotation;
  for (std::uint32_t id = 0; id < 3; ++id) rotation.add(target_mac(id));
  const auto never = [](const MacAddress&, int) { return false; };
  const auto always = [](const MacAddress&) { return true; };
  EXPECT_EQ(rotation.pick(never, always), target_mac(1));
  EXPECT_EQ(rotation.pick(never, always), target_mac(2));
  EXPECT_EQ(rotation.pick(never, always), target_mac(0));
}

}  // namespace
}  // namespace politewifi::core
