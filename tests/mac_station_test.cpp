// The low-MAC property suite — the paper's invariant, exhaustively:
//
//   Any FCS-valid frame whose addr1 matches the station is ACKed exactly
//   one SIFS after reception, REGARDLESS of frame subtype, encryption
//   validity, sender identity, association state, or what the software
//   above thinks.
//
// Runs against a mock environment so every timer and transmission is
// observable with nanosecond precision.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "crypto/wpa2.h"
#include "frames/data.h"
#include "frames/frame_builder.h"
#include "frames/management.h"
#include "frames/serializer.h"
#include "mac/ap_role.h"
#include "mac/client_role.h"
#include "mac/eapol.h"
#include "mac/station.h"

namespace politewifi::mac {
namespace {

using frames::Frame;

const MacAddress kSelf{0x3c, 0x28, 0x6d, 0x01, 0x02, 0x03};
const MacAddress kPeer{0x00, 0x11, 0x22, 0x33, 0x44, 0x55};
const MacAddress kFake = MacAddress::paper_fake_address();

/// Deterministic mock of the radio/scheduler the station runs against.
class MockEnv : public MacEnvironment {
 public:
  struct Sent {
    Frame frame;
    phy::TxVector tx;
    TimePoint at;
  };

  TimePoint now() const override { return now_; }

  std::uint64_t schedule(Duration delay, SmallFn fn) override {
    const std::uint64_t id = next_id_++;
    timers_.push_back(Timer{id, now_ + delay, std::move(fn), false});
    return id;
  }

  void cancel(std::uint64_t id) override {
    for (auto& t : timers_) {
      if (t.id == id) t.cancelled = true;
    }
  }

  void transmit(const Frame& frame, const phy::TxVector& tx) override {
    sent_.push_back({frame, tx, now_});
  }

  bool medium_busy() const override { return busy_; }

  /// Advances simulated time, firing due timers in order.
  void advance(Duration d) {
    const TimePoint until = now_ + d;
    while (true) {
      // Earliest uncancelled due timer.
      auto best = timers_.end();
      for (auto it = timers_.begin(); it != timers_.end(); ++it) {
        if (it->cancelled || it->at > until) continue;
        if (best == timers_.end() || it->at < best->at ||
            (it->at == best->at && it->id < best->id)) {
          best = it;
        }
      }
      if (best == timers_.end()) break;
      now_ = best->at;
      auto fn = std::move(best->fn);
      timers_.erase(best);
      fn();
    }
    now_ = until;
  }

  std::vector<Sent> sent_;
  bool busy_ = false;

 private:
  struct Timer {
    std::uint64_t id;
    TimePoint at;
    SmallFn fn;
    bool cancelled;
  };
  TimePoint now_ = kSimStart;
  std::vector<Timer> timers_;
  std::uint64_t next_id_ = 1;
};

struct Harness {
  MockEnv env;
  MacConfig config;
  std::unique_ptr<Station> station;

  explicit Harness(MacConfig cfg = {}) {
    config = cfg;
    if (config.address.is_zero()) config.address = kSelf;
    station = std::make_unique<Station>(config, env, Rng(1));
  }

  /// Delivers a frame to the station as a valid PPDU at `rate`.
  void deliver(const Frame& f, phy::PhyRate rate = phy::kOfdm24) {
    phy::RxVector rx;
    rx.rate = rate;
    rx.rssi_dbm = -50;
    rx.snr_db = 40;
    station->on_ppdu_received(frames::serialize(f), rx);
  }

  /// All ACKs transmitted so far.
  std::vector<MockEnv::Sent> acks() const {
    std::vector<MockEnv::Sent> out;
    for (const auto& s : env.sent_) {
      if (s.frame.fc.is_ack()) out.push_back(s);
    }
    return out;
  }
};

// --- THE invariant, across every ackable frame flavour -------------------------

struct AckCase {
  const char* name;
  Frame frame;
};

std::vector<AckCase> ackable_frames() {
  std::vector<AckCase> cases;
  // The paper's fake frame: unencrypted null function from a stranger.
  cases.push_back({"fake_null_from_stranger",
                   frames::make_null_function(kSelf, kFake, 1)});
  // QoS null.
  {
    Frame f = frames::make_null_function(kSelf, kFake, 2);
    f.fc.subtype = static_cast<std::uint8_t>(frames::DataSubtype::kQosNull);
    f.qos_control = 0;
    cases.push_back({"fake_qos_null", f});
  }
  // Data frame claiming to be protected — garbage CCMP blob.
  {
    Frame f = frames::make_data_to_ds(kSelf, kFake, kSelf,
                                      Bytes(24, 0xAB), 3);
    f.fc.protected_frame = true;
    cases.push_back({"garbage_protected_data", f});
  }
  // Plain unencrypted data with payload.
  cases.push_back(
      {"plain_data", frames::make_data_to_ds(kSelf, kFake, kSelf,
                                             Bytes{1, 2, 3}, 4)});
  // Management: probe response, auth, deauth — all addressed to us.
  cases.push_back(
      {"deauth", frames::make_deauth(kSelf, kFake, kFake,
                                     frames::ReasonCode::kUnspecified, 5)});
  cases.push_back({"authentication",
                   frames::make_authentication(kSelf, kFake, kFake, {}, 6)});
  {
    frames::AssociationRequest req;
    cases.push_back({"assoc_request",
                     frames::make_assoc_request(kSelf, kFake, req, 7)});
  }
  // Maximal weirdness: reserved subtype bits via the builder.
  {
    Frame f = frames::FrameBuilder()
                  .data(frames::DataSubtype::kData)
                  .to_ds()
                  .from_ds(false)
                  .retry()
                  .addr1(kSelf)
                  .addr2(kFake)
                  .addr3(MacAddress::broadcast())
                  .sequence(4095, 3)
                  .body(Bytes(7, 0xFF))
                  .build();
    cases.push_back({"weird_flag_combo", f});
  }
  return cases;
}

class PoliteAckInvariant : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoliteAckInvariant, AckedExactlyOnceAtSifsToClaimedSender) {
  const AckCase c = ackable_frames()[GetParam()];
  Harness h;
  const TimePoint rx_end = h.env.now();
  h.deliver(c.frame);
  h.env.advance(milliseconds(1));

  const auto acks = h.acks();
  ASSERT_EQ(acks.size(), 1u) << c.name;
  EXPECT_EQ(acks[0].frame.addr1, c.frame.addr2) << c.name;
  EXPECT_EQ(acks[0].at - rx_end, phy::sifs(phy::Band::k2_4GHz)) << c.name;
  EXPECT_EQ(h.station->stats().acks_sent, 1u);
}

TEST_P(PoliteAckInvariant, FiveGhzUsesSixteenMicroseconds) {
  const AckCase c = ackable_frames()[GetParam()];
  MacConfig cfg;
  cfg.band = phy::Band::k5GHz;
  Harness h(cfg);
  const TimePoint rx_end = h.env.now();
  h.deliver(c.frame);
  h.env.advance(milliseconds(1));
  const auto acks = h.acks();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].at - rx_end, microseconds(16));
}

TEST_P(PoliteAckInvariant, FcsCorruptionSuppressesAck) {
  const AckCase c = ackable_frames()[GetParam()];
  Harness h;
  Bytes raw = frames::serialize(c.frame);
  frames::corrupt(raw, 2, GetParam() + 1);
  h.station->on_ppdu_received(raw, phy::RxVector{});
  h.env.advance(milliseconds(1));
  EXPECT_TRUE(h.acks().empty()) << c.name;
  EXPECT_GE(h.station->stats().fcs_failures, 1u);
}

TEST_P(PoliteAckInvariant, NotOurAddressMeansSilence) {
  AckCase c = ackable_frames()[GetParam()];
  c.frame.addr1 = kPeer;  // someone else's frame
  Harness h;
  h.deliver(c.frame);
  h.env.advance(milliseconds(1));
  EXPECT_TRUE(h.acks().empty()) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllAckableFrames, PoliteAckInvariant,
                         ::testing::Range<std::size_t>(0, 8),
                         [](const auto& info) {
                           return ackable_frames()[info.param].name;
                         });

// --- More receive-path behaviour ----------------------------------------------------

TEST(StationRx, BroadcastNeverAcked) {
  Harness h;
  frames::Beacon b;
  b.elements.set_ssid("x");
  h.deliver(frames::make_beacon(kPeer, b, 1));
  h.env.advance(milliseconds(1));
  EXPECT_TRUE(h.acks().empty());
  EXPECT_EQ(h.station->stats().frames_received, 1u);
}

TEST(StationRx, AckRateFollowsControlResponseRule) {
  Harness h;
  h.deliver(frames::make_null_function(kSelf, kFake, 1), phy::kOfdm54);
  h.env.advance(milliseconds(1));
  auto acks = h.acks();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].tx.rate, phy::kOfdm24);

  h.deliver(frames::make_null_function(kSelf, kFake, 2), phy::kOfdm6);
  h.env.advance(milliseconds(1));
  acks = h.acks();
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[1].tx.rate, phy::kOfdm6);
}

TEST(StationRx, DuplicateIsAckedButNotRedelivered) {
  Harness h;
  std::size_t delivered = 0;
  h.station->set_upper_handler(
      [&delivered](const Frame&, const phy::RxVector&) { ++delivered; });

  Frame f = frames::make_data_to_ds(kSelf, kPeer, kSelf, Bytes{1}, 42);
  h.deliver(f);
  h.env.advance(milliseconds(1));
  Frame retry = f;
  retry.fc.retry = true;
  h.deliver(retry);
  h.env.advance(milliseconds(1));

  EXPECT_EQ(h.acks().size(), 2u);  // our first ACK may have been lost!
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(h.station->stats().duplicates_dropped, 1u);
}

TEST(StationRx, SameSequenceWithoutRetryBitIsNotDuplicate) {
  Harness h;
  std::size_t delivered = 0;
  h.station->set_upper_handler(
      [&delivered](const Frame&, const phy::RxVector&) { ++delivered; });
  const Frame f = frames::make_data_to_ds(kSelf, kPeer, kSelf, Bytes{1}, 42);
  h.deliver(f);
  h.deliver(f);  // e.g. two distinct sends reusing a sequence number
  h.env.advance(milliseconds(1));
  EXPECT_EQ(delivered, 2u);
}

TEST(StationRx, DedupCacheIsCappedAtConfiguredSize) {
  // Regression: the dedup cache used to be an unbounded per-sender map, so
  // a wardriving attacker spraying spoofed transmitter addresses grew it
  // without limit. Now it is a fixed-capacity LRU.
  MacConfig cfg;
  cfg.dedup_cache_size = 8;
  Harness h(cfg);
  for (std::uint8_t i = 0; i < 100; ++i) {
    const MacAddress sender{0x02, 0x00, 0x00, 0x00, 0x01, i};
    h.deliver(frames::make_data_to_ds(kSelf, sender, kSelf, Bytes{1}, i));
  }
  h.env.advance(milliseconds(1));
  EXPECT_EQ(h.station->dedup_cache_entries(), 8u);
  EXPECT_EQ(h.station->stats().frames_received, 100u);
  EXPECT_EQ(h.station->stats().duplicates_dropped, 0u);
}

TEST(StationRx, EvictionDropsOldestSenderFirst) {
  MacConfig cfg;
  cfg.dedup_cache_size = 2;
  Harness h(cfg);
  std::size_t delivered = 0;
  h.station->set_upper_handler(
      [&delivered](const Frame&, const phy::RxVector&) { ++delivered; });

  const MacAddress a{0x02, 0, 0, 0, 0, 0x0a};
  const MacAddress b{0x02, 0, 0, 0, 0, 0x0b};
  const MacAddress c{0x02, 0, 0, 0, 0, 0x0c};
  h.deliver(frames::make_data_to_ds(kSelf, a, kSelf, Bytes{1}, 10));
  h.deliver(frames::make_data_to_ds(kSelf, b, kSelf, Bytes{1}, 20));
  // c evicts a (the least recently seen sender), not b.
  h.deliver(frames::make_data_to_ds(kSelf, c, kSelf, Bytes{1}, 30));
  h.env.advance(milliseconds(1));
  EXPECT_EQ(h.station->dedup_cache_entries(), 2u);

  // b is still tracked: its retry is recognised as a duplicate.
  Frame b_retry = frames::make_data_to_ds(kSelf, b, kSelf, Bytes{1}, 20);
  b_retry.fc.retry = true;
  h.deliver(b_retry);
  h.env.advance(milliseconds(1));
  EXPECT_EQ(h.station->stats().duplicates_dropped, 1u);
  // a was evicted: its retry re-delivers (the standard allows this — a
  // receiver only has to de-duplicate within its cache horizon).
  Frame a_retry = frames::make_data_to_ds(kSelf, a, kSelf, Bytes{1}, 10);
  a_retry.fc.retry = true;
  h.deliver(a_retry);
  h.env.advance(milliseconds(1));
  EXPECT_EQ(h.station->stats().duplicates_dropped, 1u);
  EXPECT_EQ(delivered, 4u);
}

TEST(StationRx, DuplicateDetectionStillWorksAtTheCap) {
  MacConfig cfg;
  cfg.dedup_cache_size = 4;
  Harness h(cfg);
  std::size_t delivered = 0;
  h.station->set_upper_handler(
      [&delivered](const Frame&, const phy::RxVector&) { ++delivered; });
  // Fill the cache, then retry every tracked sender: all four retries
  // must be dropped even though the cache is at capacity.
  for (std::uint8_t i = 0; i < 4; ++i) {
    const MacAddress sender{0x02, 0, 0, 0, 2, i};
    h.deliver(frames::make_data_to_ds(kSelf, sender, kSelf, Bytes{1}, i));
  }
  for (std::uint8_t i = 0; i < 4; ++i) {
    const MacAddress sender{0x02, 0, 0, 0, 2, i};
    Frame retry = frames::make_data_to_ds(kSelf, sender, kSelf, Bytes{1}, i);
    retry.fc.retry = true;
    h.deliver(retry);
  }
  h.env.advance(milliseconds(1));
  EXPECT_EQ(h.station->stats().duplicates_dropped, 4u);
  EXPECT_EQ(delivered, 4u);
}

TEST(StationRx, RtsElicitsCtsAtSifs) {
  Harness h;
  const TimePoint rx_end = h.env.now();
  h.deliver(frames::make_rts(kSelf, kFake, 100));
  h.env.advance(milliseconds(1));
  ASSERT_EQ(h.env.sent_.size(), 1u);
  const auto& cts = h.env.sent_[0];
  EXPECT_TRUE(cts.frame.fc.is_cts());
  EXPECT_EQ(cts.frame.addr1, kFake);
  EXPECT_EQ(cts.at - rx_end, phy::sifs(phy::Band::k2_4GHz));
  EXPECT_LT(cts.frame.duration_id, 100);  // NAV shrunk by CTS airtime
}

TEST(StationRx, RtsResponseCanBeDisabled) {
  MacConfig cfg;
  cfg.respond_to_rts = false;
  Harness h(cfg);
  h.deliver(frames::make_rts(kSelf, kFake, 100));
  h.env.advance(milliseconds(1));
  EXPECT_TRUE(h.env.sent_.empty());
}

TEST(StationRx, SnifferSeesEverythingIncludingBadFcs) {
  Harness h;
  std::size_t seen = 0, bad = 0;
  h.station->set_sniffer(
      [&](const Frame&, const phy::RxVector&, bool fcs_ok) {
        ++seen;
        bad += fcs_ok ? 0 : 1;
      });
  h.deliver(frames::make_null_function(kPeer, kFake, 1));  // not for us
  Bytes raw = frames::serialize(frames::make_null_function(kSelf, kFake, 2));
  raw[raw.size() - 1] ^= 0x01;  // FCS damage
  h.station->on_ppdu_received(raw, phy::RxVector{});
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(bad, 1u);
}

TEST(StationRx, DozingStationReceivesNothing) {
  Harness h;
  h.station->set_dozing(true);
  h.deliver(frames::make_null_function(kSelf, kFake, 1));
  h.env.advance(milliseconds(1));
  EXPECT_TRUE(h.acks().empty());
}

// --- Transmit path (DCF) ---------------------------------------------------------------

/// Advances in fine steps until `pred` holds (or `max` elapses), so a
/// test can react between a transmission and its ACK timeout.
template <typename Pred>
bool advance_until(MockEnv& env, Pred pred, Duration max = seconds(1)) {
  const TimePoint deadline = env.now() + max;
  while (!pred() && env.now() < deadline) env.advance(microseconds(10));
  return pred();
}

TEST(StationTx, UnicastWaitsAtLeastDifs) {
  Harness h;
  const TimePoint queued = h.env.now();
  h.station->send(frames::make_null_function(kPeer, kSelf, 1), phy::kOfdm24);
  h.env.advance(milliseconds(5));
  ASSERT_FALSE(h.env.sent_.empty());
  EXPECT_GE(h.env.sent_[0].at - queued, phy::difs(phy::Band::k2_4GHz));
}

TEST(StationTx, AckCompletesTransmission) {
  Harness h;
  std::optional<TxResult> result;
  h.station->send(frames::make_null_function(kPeer, kSelf, 1), phy::kOfdm24,
                  [&result](const TxResult& r) { result = r; });
  ASSERT_TRUE(advance_until(h.env, [&] { return !h.env.sent_.empty(); }));
  ASSERT_EQ(h.env.sent_.size(), 1u);

  h.deliver(frames::make_ack(kSelf));
  h.env.advance(milliseconds(1));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->acked);
  EXPECT_EQ(result->transmissions, 1);
  EXPECT_EQ(h.station->stats().tx_success, 1u);
}

TEST(StationTx, NoAckMeansRetriesWithRetryBitThenFailure) {
  MacConfig cfg;
  cfg.retry_limit = 4;
  Harness h(cfg);
  std::optional<TxResult> result;
  h.station->send(frames::make_data_to_ds(kPeer, kSelf, kPeer, Bytes{1}, 9),
                  phy::kOfdm24,
                  [&result](const TxResult& r) { result = r; });
  h.env.advance(seconds(2));

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->acked);
  EXPECT_EQ(result->transmissions, 4);
  EXPECT_EQ(h.env.sent_.size(), 4u);
  EXPECT_FALSE(h.env.sent_[0].frame.fc.retry);
  for (std::size_t i = 1; i < h.env.sent_.size(); ++i) {
    EXPECT_TRUE(h.env.sent_[i].frame.fc.retry);
  }
  EXPECT_EQ(h.station->stats().retransmissions, 3u);
  EXPECT_EQ(h.station->stats().tx_failures, 1u);
}

TEST(StationTx, BroadcastIsFireAndForget) {
  Harness h;
  std::optional<TxResult> result;
  frames::Beacon b;
  h.station->send(frames::make_beacon(kSelf, b, 1), phy::kOfdm6,
                  [&result](const TxResult& r) { result = r; });
  h.env.advance(milliseconds(10));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->acked);
  EXPECT_EQ(h.env.sent_.size(), 1u);
}

TEST(StationTx, BusyMediumDefersTransmission) {
  Harness h;
  h.env.busy_ = true;
  h.station->send(frames::make_null_function(kPeer, kSelf, 1), phy::kOfdm24);
  h.env.advance(milliseconds(20));
  EXPECT_TRUE(h.env.sent_.empty());
  const TimePoint cleared = h.env.now();
  h.env.busy_ = false;
  ASSERT_TRUE(advance_until(h.env, [&] { return !h.env.sent_.empty(); }));
  EXPECT_GT(h.env.sent_[0].at, cleared);
}

TEST(StationTx, QueueDrainsInOrder) {
  Harness h;
  for (int i = 0; i < 3; ++i) {
    h.station->send(
        frames::make_data_to_ds(kPeer, kSelf, kPeer, Bytes{std::uint8_t(i)},
                                h.station->next_sequence()),
        phy::kOfdm24);
    // ACK each one as it goes out.
  }
  for (std::size_t round = 1; round <= 3; ++round) {
    ASSERT_TRUE(
        advance_until(h.env, [&] { return h.env.sent_.size() >= round; }));
    h.deliver(frames::make_ack(kSelf));
  }
  h.env.advance(milliseconds(5));
  ASSERT_EQ(h.env.sent_.size(), 3u);
  EXPECT_EQ(h.env.sent_[0].frame.body[0], 0);
  EXPECT_EQ(h.env.sent_[1].frame.body[0], 1);
  EXPECT_EQ(h.env.sent_[2].frame.body[0], 2);
}

TEST(StationTx, NavDefersTransmission) {
  Harness h;
  // Overhear a frame reserving the medium for 3000 us.
  Frame rts = frames::make_rts(kPeer, kFake, 3000);
  h.deliver(rts);
  const TimePoint nav_set = h.env.now();
  h.station->send(frames::make_null_function(kPeer, kSelf, 1), phy::kOfdm24);
  h.env.advance(milliseconds(10));
  ASSERT_FALSE(h.env.sent_.empty());
  // The CTS response (we were addressed? no — kPeer) ... our TX must wait
  // out the NAV.
  for (const auto& s : h.env.sent_) {
    if (s.frame.fc.is_null_function()) {
      EXPECT_GE(s.at - nav_set, microseconds(3000));
    }
  }
}

// --- The validating-MAC ablation (§2.2) ------------------------------------------------

TEST(ValidatingMac, FakeFrameNeverAcked) {
  MacConfig cfg;
  cfg.ack_policy = AckPolicyMode::kValidatingMac;
  Harness h(cfg);
  h.deliver(frames::make_null_function(kSelf, kFake, 1));
  h.env.advance(seconds(1));
  EXPECT_TRUE(h.acks().empty());
  EXPECT_EQ(h.station->stats().validations_rejected, 1u);
}

TEST(ValidatingMac, GenuineFrameAckedButFarTooLate) {
  MacConfig cfg;
  cfg.ack_policy = AckPolicyMode::kValidatingMac;
  Harness h(cfg);

  const crypto::Ptk ptk = crypto::derive_fast_ptk(kPeer, kSelf);
  crypto::Wpa2Session tx_session(ptk), rx_session(ptk);
  h.station->set_validation_session(&rx_session);

  Frame f = frames::make_data_to_ds(kSelf, kPeer, kSelf, Bytes{1, 2, 3}, 10);
  tx_session.protect(f);
  const TimePoint rx_end = h.env.now();
  h.deliver(f);
  h.env.advance(milliseconds(10));

  const auto acks = h.acks();
  ASSERT_EQ(acks.size(), 1u);
  const Duration latency = acks[0].at - rx_end;
  // The ACK exists — but hundreds of microseconds after SIFS, far past
  // any transmitter's ACK timeout. The link is broken by design.
  EXPECT_GT(latency, phy::ack_timeout(phy::Band::k2_4GHz));
  EXPECT_GT(latency, 10 * phy::sifs(phy::Band::k2_4GHz));
}

TEST(ValidatingMac, StillRespondsToRts) {
  // Control frames cannot be encrypted, so even the validating receiver
  // answers RTS — the §2.2 checkmate.
  MacConfig cfg;
  cfg.ack_policy = AckPolicyMode::kValidatingMac;
  Harness h(cfg);
  h.deliver(frames::make_rts(kSelf, kFake, 60));
  h.env.advance(milliseconds(1));
  ASSERT_EQ(h.env.sent_.size(), 1u);
  EXPECT_TRUE(h.env.sent_[0].frame.fc.is_cts());
}

// --- SIFS jitter ------------------------------------------------------------------------

TEST(StationRx, SifsJitterDelaysButNeverUndershoots) {
  MacConfig cfg;
  cfg.sifs_jitter_ns = 200.0;
  Harness h(cfg);
  for (int i = 0; i < 10; ++i) {
    const TimePoint rx_end = h.env.now();
    h.deliver(frames::make_null_function(kSelf, kFake,
                                         static_cast<std::uint16_t>(i)));
    h.env.advance(milliseconds(1));
    const auto acks = h.acks();
    EXPECT_GE(acks.back().at - rx_end, phy::sifs(phy::Band::k2_4GHz));
    EXPECT_LT(acks.back().at - rx_end,
              phy::sifs(phy::Band::k2_4GHz) + microseconds(2));
  }
}

// --- Hostile FCS-valid frames ---------------------------------------------------
//
// A Polite WiFi attacker sends frames that pass the FCS, so every parser
// behind the receive entry sees hostile bodies: information elements,
// EAPOL-key messages, CCMP headers. A seeded mutator damages valid frames
// of every kind the roles handle, recomputes the FCS, and feeds them to an
// AP, an associated client and a validating MAC. Nothing may abort or
// throw, and the polite stations must ACK every mutated frame that still
// decodes as data or management addressed to them — whatever it holds.

const MacAddress kHostileAp{0x02, 0xa0, 0x00, 0x00, 0x00, 0x01};
const MacAddress kHostileSta{0x02, 0x5a, 0x00, 0x00, 0x00, 0x02};
const MacAddress kHostileValidator{0x02, 0x7f, 0x00, 0x00, 0x00, 0x03};

/// One valid frame of each kind, addressed to `self` from `peer` (the
/// receiver's AP or client), as the roles would see them on air.
std::vector<std::pair<std::string, Frame>> hostile_bases(
    const MacAddress& self, const MacAddress& peer, const crypto::Ptk& ptk) {
  frames::Beacon beacon;
  beacon.elements.set_ssid("PrivateNet");
  beacon.elements.set_supported_rates({0x82, 0x84, 0x8b, 0x96});
  beacon.elements.set_channel(6);
  beacon.elements.set_tim({.dtim_count = 0, .dtim_period = 1,
                           .buffered_aids = {1, 9}});
  beacon.elements.set_rsn_wpa2_psk();
  frames::ProbeRequest probe;
  probe.elements.set_ssid("PrivateNet");
  frames::AssociationRequest assoc_req;
  assoc_req.capability.privacy = true;
  assoc_req.elements.set_ssid("PrivateNet");
  frames::AssociationResponse assoc_resp;
  assoc_resp.aid = 1;
  assoc_resp.elements.set_supported_rates({0x82, 0x84});
  EapolKey eapol;
  eapol.message_number = 2;
  eapol.nonce.fill(0x5a);

  std::vector<std::pair<std::string, Frame>> bases;
  Frame f = frames::make_beacon(peer, beacon, 1);
  f.addr1 = self;
  bases.emplace_back("beacon", f);
  f = frames::make_probe_request(peer, probe, 2);
  f.addr1 = self;
  bases.emplace_back("probe request", f);
  bases.emplace_back("probe response",
                     frames::make_probe_response(self, peer, beacon, 3));
  bases.emplace_back(
      "authentication",
      frames::make_authentication(self, peer, self,
                                  {.algorithm = 0, .sequence = 1}, 4));
  bases.emplace_back("association request",
                     frames::make_assoc_request(self, peer, assoc_req, 5));
  bases.emplace_back("association response",
                     frames::make_assoc_response(self, peer, assoc_resp, 6));
  bases.emplace_back("EAPOL-key", frames::make_data_from_ds(
                                      peer, peer, self, eapol.serialize(), 7));
  f = frames::make_data_from_ds(peer, peer, self, Bytes(48, 0x11), 8);
  crypto::Wpa2Session(ptk).protect(f);
  bases.emplace_back("CCMP data", f);
  bases.emplace_back("null", frames::make_null_function(self, peer, 9));
  bases.emplace_back("RTS", frames::make_rts(self, peer, 120));
  bases.emplace_back("PS-Poll", frames::make_ps_poll(self, peer, 1));
  return bases;
}

/// Damages `frame`'s octets (header and body; FCS excluded) with one to
/// four random edits, then appends a freshly computed FCS.
Bytes mutate(const Frame& frame, Rng& rng) {
  Bytes mpdu = frames::serialize(frame);
  mpdu.resize(mpdu.size() - 4);  // the FCS is recomputed below
  const std::size_t header = frame.header_size();
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int e = 0; e < edits; ++e) {
    const auto pick = [&](std::size_t lo) {
      return lo + static_cast<std::size_t>(
                      rng.uniform_int(0, std::int64_t(mpdu.size() - lo) - 1));
    };
    switch (rng.uniform_int(0, 5)) {
      case 0:  // a bit anywhere
        if (!mpdu.empty()) {
          mpdu[pick(0)] ^= std::uint8_t(1u << rng.uniform_int(0, 7));
        }
        break;
      case 1:  // a random body octet (element lengths, EAPOL fields, PN)
      case 2:
        if (mpdu.size() > header) {
          mpdu[pick(header)] = std::uint8_t(rng.uniform_int(0, 255));
        }
        break;
      case 3:  // an extreme body octet: 0x00 or 0xff
        if (mpdu.size() > header) {
          mpdu[pick(header)] = rng.bernoulli(0.5) ? 0x00 : 0xff;
        }
        break;
      case 4:  // truncate anywhere, header included
        mpdu.resize(static_cast<std::size_t>(
            rng.uniform_int(0, std::int64_t(mpdu.size()))));
        break;
      case 5:  // append random octets
        for (auto n = rng.uniform_int(1, 40); n > 0; --n) {
          mpdu.push_back(std::uint8_t(rng.uniform_int(0, 255)));
        }
        break;
    }
  }
  const std::uint32_t fcs = crc32(mpdu);
  for (int i = 0; i < 4; ++i) mpdu.push_back(std::uint8_t(fcs >> (8 * i)));
  return mpdu;
}

/// One receiving MAC under attack, with its own mock environment.
struct HostileTarget {
  std::string name;
  MockEnv env;
  std::unique_ptr<Station> station;
  std::unique_ptr<ApRole> ap;
  std::unique_ptr<ClientRole> client;
  std::unique_ptr<crypto::Wpa2Session> validation;
  bool polite = true;
  MacAddress peer;
  std::uint64_t addressed = 0;  // FCS-clean data/management for us

  HostileTarget(std::string n, const MacAddress& self, AckPolicyMode mode)
      : name(std::move(n)) {
    MacConfig cfg;
    cfg.address = self;
    cfg.ack_policy = mode;
    polite = mode == AckPolicyMode::kPoliteHardware;
    station = std::make_unique<Station>(cfg, env, Rng(7));
  }
  RoleContext context() { return {.station = station.get(), .env = &env}; }
};

TEST(HostileFrames, ParsersSurviveAndPoliteStationsAckWhateverTheBody) {
  const crypto::Ptk ptk = crypto::derive_fast_ptk(kHostileAp, kHostileSta);
  std::vector<std::unique_ptr<HostileTarget>> targets;

  auto ap = std::make_unique<HostileTarget>("AP role", kHostileAp,
                                            AckPolicyMode::kPoliteHardware);
  ap->ap = std::make_unique<ApRole>(
      ApConfig{.send_beacons = false, .fast_keys = true}, ap->context());
  ap->ap->start();
  ap->ap->install_established_client(kHostileSta, ptk);
  ap->peer = kHostileSta;
  targets.push_back(std::move(ap));

  auto client = std::make_unique<HostileTarget>(
      "client role", kHostileSta, AckPolicyMode::kPoliteHardware);
  client->client = std::make_unique<ClientRole>(
      ClientConfig{.fast_keys = true}, client->context());
  client->client->start();
  client->client->install_established(kHostileAp, 1, ptk);
  client->peer = kHostileAp;
  targets.push_back(std::move(client));

  auto validator = std::make_unique<HostileTarget>(
      "validating MAC", kHostileValidator, AckPolicyMode::kValidatingMac);
  validator->validation = std::make_unique<crypto::Wpa2Session>(ptk);
  validator->station->set_validation_session(validator->validation.get());
  validator->peer = kHostileAp;
  targets.push_back(std::move(validator));

  constexpr int kMutationsPerKind = 2000;
  Rng rng(20201104);
  phy::RxVector rx;
  rx.rate = phy::kOfdm24;
  rx.rssi_dbm = -50;
  rx.snr_db = 40;
  for (auto& t : targets) {
    const MacAddress self = t->station->address();
    for (const auto& [kind, base] : hostile_bases(self, t->peer, ptk)) {
      for (int i = 0; i < kMutationsPerKind; ++i) {
        const Bytes raw = mutate(base, rng);
        const frames::DeserializeResult decoded = frames::deserialize(raw);
        const bool addressed = decoded.fcs_ok && decoded.frame &&
                               !decoded.frame->fc.is_control() &&
                               decoded.frame->addr1 == self;
        const std::size_t sent_before = t->env.sent_.size();
        ASSERT_NO_THROW({
          t->station->on_ppdu_received(raw, rx);
          t->env.advance(microseconds(12));  // past SIFS: the ACK is out
        }) << t->name << ", " << kind << " mutation " << i;
        const auto acks = std::count_if(
            t->env.sent_.begin() + std::ptrdiff_t(sent_before),
            t->env.sent_.end(),
            [](const MockEnv::Sent& s) { return s.frame.fc.is_ack(); });
        if (t->polite && addressed) {
          ++t->addressed;
          ASSERT_EQ(acks, 1) << t->name << " did not ACK exactly once: "
                             << kind << " mutation " << i << ", "
                             << decoded.frame->summary();
        }
        ASSERT_LE(acks, 1) << t->name << ", " << kind << " mutation " << i;
      }
    }
  }
  // Non-vacuity: most mutations keep the frame addressed and decodable.
  for (const auto& t : targets) {
    if (!t->polite) continue;
    EXPECT_GT(t->addressed, 8000u) << t->name;
  }
}

}  // namespace
}  // namespace politewifi::mac
