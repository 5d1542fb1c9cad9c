// End-to-end integration: full simulator bring-up, real over-the-air
// association + WPA2 handshake, and the paper's core experiments.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/ack_sniffer.h"
#include "core/injector.h"
#include "core/monitor.h"
#include "sim/network.h"

namespace politewifi {
namespace {

using sim::Device;
using sim::Simulation;

constexpr MacAddress kApMac{0xf2, 0x6e, 0x0b, 0x01, 0x02, 0x03};
constexpr MacAddress kClientMac{0x3c, 0x28, 0x6d, 0xaa, 0xbb, 0xcc};
constexpr MacAddress kAttackerMac{0x02, 0xde, 0xad, 0xbe, 0xef, 0x01};

TEST(Integration, ClientAssociatesOverTheAir) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 11});
  mac::ApConfig ap_config;
  ap_config.fast_keys = true;
  Device& ap = sim.add_ap("ap", kApMac, {0.0, 0.0}, ap_config);
  mac::ClientConfig cl;
  cl.fast_keys = true;
  Device& client = sim.add_client("client", kClientMac, {4.0, 0.0}, cl);

  ASSERT_TRUE(sim.establish(client, seconds(10)));
  EXPECT_TRUE(client.client()->established());
  // The AP's side: its one client finished the 4-way handshake.
  EXPECT_EQ(ap.ap()->client_count(), 1u);
  EXPECT_EQ(ap.ap()->stats().handshakes_completed, 1u);
}

TEST(Integration, RealPbkdf2HandshakeAlsoWorks) {
  // Same flow with the full PBKDF2 key derivation (slow path).
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 12});
  Device& ap = sim.add_ap("ap", kApMac, {0.0, 0.0}, {});
  Device& client = sim.add_client("client", kClientMac, {4.0, 0.0}, {});

  ASSERT_TRUE(sim.establish(client, seconds(10)));
  EXPECT_EQ(ap.ap()->client_count(), 1u);
  EXPECT_EQ(ap.ap()->stats().handshakes_completed, 1u);
}

TEST(Integration, EncryptedUplinkDelivers) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 13});
  mac::ApConfig apc;
  apc.fast_keys = true;
  Device& ap = sim.add_ap("ap", kApMac, {0.0, 0.0}, apc);
  mac::ClientConfig cl;
  cl.fast_keys = true;
  Device& client = sim.add_client("client", kClientMac, {4.0, 0.0}, cl);
  ASSERT_TRUE(sim.establish(client, seconds(10)));

  for (int i = 0; i < 5; ++i) {
    client.client()->send_msdu(Bytes{0xde, 0xad, 0xbe, 0xef});
    sim.run_for(milliseconds(20));
  }
  EXPECT_EQ(ap.ap()->stats().msdus_received, 5u);
  EXPECT_EQ(ap.ap()->stats().decrypt_failures, 0u);
}

// --- The paper's central claim, end to end ----------------------------------

TEST(Integration, VictimAcksFakeFrameFromStranger) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 21});
  mac::ApConfig apc;
  apc.fast_keys = true;
  sim.add_ap("ap", kApMac, {0.0, 0.0}, apc);
  mac::ClientConfig cl;
  cl.fast_keys = true;
  Device& victim = sim.add_client("victim", kClientMac, {4.0, 0.0}, cl);
  ASSERT_TRUE(sim.establish(victim, seconds(10)));

  // Attacker: a bare station, no role, no keys, never associated.
  sim::RadioConfig rig;
  rig.position = {8.0, 3.0};
  rig.capture_csi = true;
  Device& attacker = sim.add_device(
      sim::DeviceInfo{.name = "attacker", .kind = sim::DeviceKind::kAttacker},
      kAttackerMac, rig);

  core::MonitorHub hub(attacker.station());
  core::AckSniffer sniffer(hub, attacker.radio(),
                           MacAddress::paper_fake_address());
  core::FakeFrameInjector injector(attacker);

  const auto acked_before = victim.station().stats().acks_sent;
  for (int i = 0; i < 20; ++i) {
    injector.inject_one(victim.address());
    sim.run_for(milliseconds(5));
  }

  // The victim ACKed the stranger's fake frames...
  EXPECT_GE(victim.station().stats().acks_sent - acked_before, 18u);
  // ...and the attacker's sniffer saw ACKs addressed to the spoofed MAC.
  EXPECT_GE(sniffer.total(), 18u);
  // The fakes never decrypted — upper layers discarded them — but that
  // happened long after the ACKs left.
  EXPECT_GE(victim.client()->stats().frames_discarded, 18u);
  EXPECT_EQ(victim.client()->stats().msdus_received, 0u);
}

TEST(Integration, UnassociatedVictimStillAcks) {
  // "Even if the victim device is not connected to any WiFi network,
  // this attack still works." (§4.1)
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 22});
  mac::ClientConfig cl;
  cl.fast_keys = true;
  Device& victim = sim.add_client("loner", kClientMac, {3.0, 0.0}, cl);
  ASSERT_FALSE(victim.client()->established());

  sim::RadioConfig rig;
  rig.position = {0.0, 0.0};
  Device& attacker = sim.add_device(
      sim::DeviceInfo{.name = "attacker", .kind = sim::DeviceKind::kAttacker},
      kAttackerMac, rig);
  core::FakeFrameInjector injector(attacker);

  for (int i = 0; i < 10; ++i) {
    injector.inject_one(victim.address());
    sim.run_for(milliseconds(2));
  }
  EXPECT_GE(victim.station().stats().acks_sent, 9u);
}

TEST(Integration, AckArrivesOneSifsAfterFakeFrame) {
  // Timing check on the trace: victim ACK starts exactly SIFS after the
  // fake frame's PPDU ends (2.4 GHz -> 10 us).
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 23});
  auto& trace = sim.trace();
  mac::ClientConfig cl;
  cl.fast_keys = true;
  Device& victim = sim.add_client("victim", kClientMac, {3.0, 0.0}, cl);

  sim::RadioConfig rig;
  rig.position = {0.0, 0.0};
  Device& attacker = sim.add_device(
      sim::DeviceInfo{.name = "attacker", .kind = sim::DeviceKind::kAttacker},
      kAttackerMac, rig);
  core::FakeFrameInjector injector(attacker);
  injector.inject_one(victim.address());
  sim.run_for(milliseconds(5));

  const auto& entries = trace.entries();
  ASSERT_GE(entries.size(), 2u);
  const auto& fake = entries[0];
  const auto& ack = entries[1];
  ASSERT_TRUE(fake.parsed);
  ASSERT_TRUE(ack.parsed);
  EXPECT_TRUE(fake.frame.fc.is_null_function());
  EXPECT_TRUE(ack.frame.fc.is_ack());
  EXPECT_EQ(ack.frame.addr1, MacAddress::paper_fake_address());

  const Duration fake_airtime =
      phy::ppdu_airtime(fake.tx.rate, fake.raw.size());
  // Trace times are transmission starts, so the gap is SIFS plus one
  // 3-metre propagation delay (~10 ns).
  const Duration gap = (ack.time - fake.time) - fake_airtime;
  EXPECT_GE(gap, phy::sifs(phy::Band::k2_4GHz));
  EXPECT_LE(gap, phy::sifs(phy::Band::k2_4GHz) + nanoseconds(100));
}

TEST(Integration, Figure2TraceShape) {
  // The Wireshark view of Figure 2: null frames from aa:bb:bb:bb:bb:bb to
  // the victim, each followed by an Acknowledgement back to it.
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 24});
  auto& trace = sim.trace();
  mac::ClientConfig cl;
  cl.fast_keys = true;
  Device& victim = sim.add_client("victim", kClientMac, {3.0, 0.0}, cl);
  sim::RadioConfig rig;
  rig.position = {0.0, 0.0};
  Device& attacker = sim.add_device(
      sim::DeviceInfo{.name = "attacker", .kind = sim::DeviceKind::kAttacker},
      kAttackerMac, rig);
  core::FakeFrameInjector injector(attacker);

  for (int i = 0; i < 3; ++i) {
    injector.inject_one(victim.address());
    sim.run_for(milliseconds(3));
  }

  std::ostringstream os;
  trace.dump(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Null function (No data)"), std::string::npos);
  EXPECT_NE(text.find("Acknowledgement"), std::string::npos);
  EXPECT_NE(text.find("aa:bb:bb:bb:bb:bb"), std::string::npos);

  const auto acks =
      std::ranges::count_if(trace.entries(), [](const sim::TraceEntry& e) {
        return e.parsed && e.frame.fc.is_ack() &&
               e.frame.addr1 == MacAddress::paper_fake_address();
      });
  EXPECT_EQ(acks, 3);
}

TEST(Integration, RtsFromStrangerElicitsCts) {
  // §2.2: the RTS/CTS variant that defeats even a hypothetical fast
  // security decoder.
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 25});
  mac::ClientConfig cl;
  cl.fast_keys = true;
  Device& victim = sim.add_client("victim", kClientMac, {3.0, 0.0}, cl);
  sim::RadioConfig rig;
  rig.position = {0.0, 0.0};
  Device& attacker = sim.add_device(
      sim::DeviceInfo{.name = "attacker", .kind = sim::DeviceKind::kAttacker},
      kAttackerMac, rig);

  core::MonitorHub hub(attacker.station());
  core::AckSniffer sniffer(hub, attacker.radio(),
                           MacAddress::paper_fake_address());
  core::FakeFrameInjector injector(attacker, {.use_rts = true});

  for (int i = 0; i < 10; ++i) {
    injector.inject_one(victim.address());
    sim.run_for(milliseconds(2));
  }
  EXPECT_GE(victim.station().stats().cts_sent, 9u);
  std::size_t cts_seen = 0;
  for (const auto& obs : sniffer.observations()) cts_seen += obs.is_cts;
  EXPECT_GE(cts_seen, 9u);
}

TEST(Integration, CorruptedFakeFrameIsNotAcked) {
  // Failure injection: an FCS-damaged frame elicits nothing.
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 26});
  mac::ClientConfig cl;
  cl.fast_keys = true;
  Device& victim = sim.add_client("victim", kClientMac, {3.0, 0.0}, cl);
  sim.run_for(milliseconds(10));

  // Hand-corrupt a frame and push it through the victim's MAC directly.
  frames::Frame fake = frames::make_null_function(
      victim.address(), MacAddress::paper_fake_address(), 1);
  Bytes raw = frames::serialize(fake);
  frames::corrupt(raw, 2, 99);
  const auto acks_before = victim.station().stats().acks_sent;
  victim.station().on_ppdu_received(raw, phy::RxVector{});
  sim.run_for(milliseconds(1));
  EXPECT_EQ(victim.station().stats().acks_sent, acks_before);
  EXPECT_GE(victim.station().stats().fcs_failures, 1u);
}

TEST(Integration, OutOfRangeAttackerGetsNothing) {
  Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 27});
  mac::ClientConfig cl;
  cl.fast_keys = true;
  Device& victim = sim.add_client("victim", kClientMac, {0.0, 0.0}, cl);
  sim::RadioConfig rig;
  rig.position = {5000.0, 0.0};  // 5 km away
  Device& attacker = sim.add_device(
      sim::DeviceInfo{.name = "attacker", .kind = sim::DeviceKind::kAttacker},
      kAttackerMac, rig);
  core::FakeFrameInjector injector(attacker);
  for (int i = 0; i < 10; ++i) {
    injector.inject_one(victim.address());
    sim.run_for(milliseconds(2));
  }
  EXPECT_EQ(victim.station().stats().acks_sent, 0u);
}

}  // namespace
}  // namespace politewifi
