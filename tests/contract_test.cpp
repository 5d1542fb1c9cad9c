// Contract-layer and invariant-auditor tests (ISSUE 2).
//
// The auditors exist to catch silent corruption — a heap entry out of
// order, a grid cell gone stale, a cached gain that drifted from its
// recompute. These tests inject exactly those corruptions through
// test-peer backdoors and assert that the audits die loudly, plus check
// the PW_CHECK macro family's message formatting and release-mode
// compile-out behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"
#include "frames/frame_builder.h"
#include "frames/serializer.h"
#include "medium_test_peer.h"
#include "phy/rates.h"
#include "scheduler_test_peer.h"
#include "sim/medium.h"
#include "sim/radio.h"

namespace politewifi::sim {

namespace {

// --- PW_CHECK family --------------------------------------------------------

TEST(Contract, PassingChecksAreSilent) {
  PW_CHECK(1 + 1 == 2);
  PW_CHECK(true, "message with %d args", 2);
  PW_CHECK_EQ(3, 3);
  PW_CHECK_NE(3, 4);
  PW_CHECK_LT(3, 4);
  PW_CHECK_LE(4, 4);
  PW_CHECK_GT(4, 3);
  PW_CHECK_GE(4, 4);
}

TEST(ContractDeathTest, CheckFailureNamesFileExpressionAndMessage) {
  EXPECT_DEATH(PW_CHECK(2 + 2 == 5, "arithmetic is %s", "broken"),
               "contract_test.cpp:.*PW_CHECK\\(2 \\+ 2 == 5\\) failed: "
               "arithmetic is broken");
}

TEST(ContractDeathTest, BareCheckFailureHasNoTrailingColon) {
  EXPECT_DEATH(PW_CHECK(false), "PW_CHECK\\(false\\) failed\n");
}

TEST(ContractDeathTest, ComparisonFailurePrintsBothOperands) {
  const int lhs = 7;
  const int rhs = 9;
  EXPECT_DEATH(PW_CHECK_EQ(lhs, rhs),
               "PW_CHECK_EQ\\(lhs == rhs\\) failed: lhs=7 rhs=9");
}

TEST(ContractDeathTest, UnreachableIsAlwaysFatal) {
  EXPECT_DEATH(PW_UNREACHABLE("fell off the state machine at %d", 42),
               "PW_UNREACHABLE\\(reached\\) failed: fell off the state "
               "machine at 42");
}

TEST(Contract, FailureHandlerReceivesFormattedMessage) {
  static std::string captured;
  auto* previous = contract::set_failure_handler(
      +[](const std::string& message) {
        captured = message;
        throw std::runtime_error(message);  // unwind instead of aborting
      });
  EXPECT_THROW(PW_CHECK(false, "seed=%u", 42u), std::runtime_error);
  contract::set_failure_handler(previous);
  EXPECT_NE(captured.find("PW_CHECK(false) failed: seed=42"),
            std::string::npos);
}

TEST(Contract, DcheckMatchesBuildMode) {
  int evaluations = 0;
  PW_DCHECK(++evaluations > 0);
#if PW_AUDIT_ENABLED
  EXPECT_EQ(evaluations, 1);  // audit builds evaluate and enforce
#else
  EXPECT_EQ(evaluations, 0);  // release compiles the condition out
#endif
}

#if PW_AUDIT_ENABLED
TEST(ContractDeathTest, DcheckFatalInAuditBuilds) {
  EXPECT_DEATH(PW_DCHECK(false, "audit build enforces this"),
               "audit build enforces this");
}
#endif

// --- Scheduler auditor ------------------------------------------------------

TEST(SchedulerAudit, CleanAfterChurn) {
  Scheduler s;
  std::vector<Scheduler::EventId> ids;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      ids.push_back(s.schedule_in(microseconds(10 * (i + 1)), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) s.cancel(ids[i]);
    ids.clear();
    s.run_for(microseconds(200));
    s.audit();
  }
  s.run_all();
  s.audit();
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerAuditDeathTest, HeapOrderCorruptionTrips) {
  Scheduler s;
  s.schedule_in(milliseconds(1), [] {});
  s.schedule_in(milliseconds(2), [] {});
  s.schedule_in(milliseconds(3), [] {});
  SchedulerTestPeer::swap_first_last_heap_entries(s);
  EXPECT_DEATH(s.audit(), "heap order violated");
}

TEST(SchedulerAuditDeathTest, TombstoneMiscountTrips) {
  Scheduler s;
  const auto id = s.schedule_in(milliseconds(1), [] {});
  s.cancel(id);
  SchedulerTestPeer::inflate_tombstone_counter(s);
  EXPECT_DEATH(s.audit(), "PW_CHECK_EQ\\(tombstones_ == cancelled_in_heap\\)");
}

TEST(SchedulerAuditDeathTest, DisarmedSlotInHeapTrips) {
  Scheduler s;
  s.schedule_in(milliseconds(1), [] {});
  SchedulerTestPeer::disarm_slot_of_first_entry(s);
  EXPECT_DEATH(s.audit(), "disarmed slot");
}

TEST(SchedulerAuditDeathTest, DoubleScheduledSlotTrips) {
  Scheduler s;
  s.schedule_in(milliseconds(1), [] {});
  SchedulerTestPeer::duplicate_first_entry(s);
  EXPECT_DEATH(s.audit(), "double-schedule");
}

// --- Medium coherence auditor ----------------------------------------------

struct AuditCity {
  Scheduler scheduler;
  Medium medium;
  std::vector<std::unique_ptr<Radio>> radios;

  AuditCity() : medium(scheduler, MediumConfig{}, /*seed=*/7) {
    for (int i = 0; i < 12; ++i) {
      radios.push_back(std::make_unique<Radio>(
          medium, scheduler,
          RadioConfig{.position = {10.0 * i, 5.0 * (i % 3)}}));
    }
  }

  /// One broadcast so neighbor lists and link caches populate.
  void warm_up() {
    medium.transmit(*radios[0], Bytes(64, 0xAB),
                    {.rate = phy::kOfdm24, .power_dbm = 15});
    scheduler.run_for(milliseconds(5));
  }
};

TEST(MediumAudit, CleanAfterTrafficAndMobility) {
  AuditCity city;
  city.warm_up();
  city.medium.audit_coherence();
  // Legitimate mobility through the proper API must stay coherent.
  city.radios[3]->set_position({500.0, 500.0});
  city.radios[5]->set_channel(11);
  city.warm_up();
  city.medium.audit_coherence();
}

TEST(MediumAuditDeathTest, StalePositionTripsGridAudit) {
  AuditCity city;
  city.warm_up();
  // Teleport a radio far enough to land in another grid cell without
  // notifying the medium: the index now lies about where the radio is.
  MediumTestPeer::stale_position(*city.radios[4], {50000.0, 50000.0});
  EXPECT_DEATH(MediumTestPeer::audit_radio(city.medium, *city.radios[4]),
               "stale grid cell");
}

TEST(MediumAuditDeathTest, StalePositionTripsFullCoherenceAudit) {
  AuditCity city;
  city.warm_up();
  MediumTestPeer::stale_position(*city.radios[4], {50000.0, 50000.0});
  // The full sweep visits radios in attach order, so the first symptom
  // may be an earlier sender's neighbor list disagreeing with the
  // brute-force recompute — either way the corruption must be fatal.
  EXPECT_DEATH(
      city.medium.audit_coherence(),
      "stale grid cell|diverges from brute force|misses detectable|"
      "cached gain");
}

TEST(MediumAuditDeathTest, CorruptedLinkCacheLineTrips) {
  AuditCity city;
  city.warm_up();
  ASSERT_TRUE(MediumTestPeer::corrupt_one_current_link_cache_line(city.medium));
  EXPECT_DEATH(city.medium.audit_coherence(),
               "link cache line .* != recomputed");
}

TEST(MediumAuditDeathTest, CorruptedFerLineTrips) {
  AuditCity city;
  city.warm_up();
  ASSERT_TRUE(MediumTestPeer::corrupt_one_fer_line(city.medium));
  EXPECT_DEATH(city.medium.audit_coherence(), "FER line .* != recomputed");
}

TEST(MediumAuditDeathTest, CorruptedNeighborGainTrips) {
  AuditCity city;
  city.warm_up();
  ASSERT_TRUE(MediumTestPeer::corrupt_one_neighbor_gain(*city.radios[0]));
  EXPECT_DEATH(city.medium.audit_coherence(), "cached gain .* != recomputed");
}

// One scheduler per medium: a radio on another scheduler would run its
// MAC timers on a clock the medium's deliveries never advance.
TEST(MediumContractDeathTest, RadioOnAForeignSchedulerDies) {
  Scheduler scheduler;
  Scheduler foreign;
  Medium medium(scheduler, MediumConfig{}, /*seed=*/7);
  EXPECT_DEATH(Radio(medium, foreign, RadioConfig{}),
               "a radio runs on its medium's scheduler");
}

// --- Radio state-machine legality table -------------------------------------

TEST(RadioStateTable, EncodesTheMacGatingRules) {
  using S = RadioState;
  // Self-transitions: nested receptions, meter resets.
  for (S s : {S::kOff, S::kSleep, S::kIdle, S::kRx, S::kTx}) {
    EXPECT_TRUE(radio_transition_legal(s, s));
  }
  // A dozing radio missed the preamble: it can only wake to idle.
  EXPECT_TRUE(radio_transition_legal(S::kSleep, S::kIdle));
  EXPECT_FALSE(radio_transition_legal(S::kSleep, S::kRx));
  EXPECT_FALSE(radio_transition_legal(S::kSleep, S::kTx));
  // Off radios power up to idle, nothing else.
  EXPECT_TRUE(radio_transition_legal(S::kOff, S::kIdle));
  EXPECT_FALSE(radio_transition_legal(S::kOff, S::kRx));
  EXPECT_FALSE(radio_transition_legal(S::kOff, S::kTx));
  EXPECT_FALSE(radio_transition_legal(S::kOff, S::kSleep));
  // Power-down is always allowed.
  for (S s : {S::kSleep, S::kIdle, S::kRx, S::kTx}) {
    EXPECT_TRUE(radio_transition_legal(s, S::kOff));
  }
  // An active radio moves freely between idle/rx/tx/sleep — including
  // Tx->Rx (a preamble arriving in the tx tail) and Rx->Tx (a reception
  // below the CS threshold abandoned for a scheduled transmit).
  EXPECT_TRUE(radio_transition_legal(S::kTx, S::kRx));
  EXPECT_TRUE(radio_transition_legal(S::kRx, S::kTx));
  EXPECT_TRUE(radio_transition_legal(S::kIdle, S::kSleep));
  EXPECT_TRUE(radio_transition_legal(S::kRx, S::kSleep));
}

#if PW_AUDIT_ENABLED
TEST(RadioStateTableDeathTest, MeterEnforcesTableInAuditBuilds) {
  EnergyMeter meter(PowerProfile::esp8266(), kSimStart);
  meter.set_state(RadioState::kSleep, kSimStart + seconds(1));
  EXPECT_DEATH(
      meter.set_state(RadioState::kTx, kSimStart + seconds(2)),
      "illegal radio state transition sleep -> tx");
}
#endif

// --- Serializer round-trip --------------------------------------------------

TEST(SerializerAudit, RoundTripIsExact) {
  const frames::Frame frame = frames::make_null_function(
      {1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12}, 17);
  const Bytes raw = frames::serialize(frame);
  EXPECT_EQ(raw.size(), frame.size_bytes());
  const auto parsed = frames::deserialize(raw);
  ASSERT_TRUE(parsed.fcs_ok);
  ASSERT_TRUE(parsed.frame.has_value());
  EXPECT_EQ(frames::serialize(*parsed.frame), raw);
}

TEST(SerializerAudit, CorruptionFailsFcsButStaysParseable) {
  const frames::Frame frame = frames::make_null_function(
      {1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12}, 17);
  Bytes raw = frames::serialize(frame);
  frames::corrupt(raw, 3, /*seed=*/99);
  const auto parsed = frames::deserialize(raw);
  EXPECT_FALSE(parsed.fcs_ok);  // the MAC must not ACK this
}

}  // namespace
}  // namespace politewifi::sim
