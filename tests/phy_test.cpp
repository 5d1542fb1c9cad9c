// PHY model tests: channels, rates/airtime, 802.11 timing constants,
// propagation, error model and the multipath CSI model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "phy/channel.h"
#include "phy/csi.h"
#include "phy/error_model.h"
#include "phy/propagation.h"
#include "phy/rates.h"
#include "phy/timing.h"

namespace politewifi::phy {
namespace {

// --- Channels -------------------------------------------------------------------

TEST(Channel, Frequencies) {
  EXPECT_DOUBLE_EQ(channel_frequency_hz(Band::k2_4GHz, 1), 2412e6);
  EXPECT_DOUBLE_EQ(channel_frequency_hz(Band::k2_4GHz, 6), 2437e6);
  EXPECT_DOUBLE_EQ(channel_frequency_hz(Band::k2_4GHz, 11), 2462e6);
  EXPECT_DOUBLE_EQ(channel_frequency_hz(Band::k2_4GHz, 14), 2484e6);
  EXPECT_DOUBLE_EQ(channel_frequency_hz(Band::k5GHz, 36), 5180e6);
  EXPECT_DOUBLE_EQ(channel_frequency_hz(Band::k5GHz, 149), 5745e6);
}

TEST(Channel, SubcarrierLayoutSkipsDc) {
  // 52 populated subcarriers at -26..-1, +1..+26 x 312.5 kHz.
  EXPECT_DOUBLE_EQ(subcarrier_offset_hz(0), -26 * 312.5e3);
  EXPECT_DOUBLE_EQ(subcarrier_offset_hz(25), -1 * 312.5e3);
  EXPECT_DOUBLE_EQ(subcarrier_offset_hz(26), +1 * 312.5e3);
  EXPECT_DOUBLE_EQ(subcarrier_offset_hz(51), +26 * 312.5e3);
  for (int k = 0; k < kNumSubcarriers; ++k) {
    EXPECT_NE(subcarrier_offset_hz(k), 0.0);  // DC never populated
  }
}

// --- Timing (the paper's §2.2 numbers) ----------------------------------------------

TEST(Timing, SifsMatchesStandard) {
  EXPECT_EQ(sifs(Band::k2_4GHz), microseconds(10));
  EXPECT_EQ(sifs(Band::k5GHz), microseconds(16));
}

TEST(Timing, DerivedIntervals) {
  EXPECT_EQ(slot_time(Band::k2_4GHz), microseconds(20));
  EXPECT_EQ(slot_time(Band::k5GHz), microseconds(9));
  EXPECT_EQ(difs(Band::k2_4GHz), microseconds(50));
  EXPECT_EQ(difs(Band::k5GHz), microseconds(34));
  EXPECT_GT(ack_timeout(Band::k2_4GHz), sifs(Band::k2_4GHz));
}

// --- Airtime -------------------------------------------------------------------------

TEST(Airtime, OfdmKnownValues) {
  // ACK (14 octets) at 24 Mb/s: 20 us preamble+SIG, (16+112+6)/96 -> 2
  // symbols -> 28 us total.
  EXPECT_EQ(ppdu_airtime(kOfdm24, 14), microseconds(28));
  // Null frame (28 octets) at 24 Mb/s: (16+224+6)/96 -> 3 symbols -> 32 us.
  EXPECT_EQ(ppdu_airtime(kOfdm24, 28), microseconds(32));
  // 1500-octet MPDU at 54 Mb/s: ceil(12022/216)=56 symbols -> 244 us.
  EXPECT_EQ(ppdu_airtime(kOfdm54, 1500), microseconds(244));
}

TEST(Airtime, DsssIncludesLongPreamble) {
  // 14 octets at 1 Mb/s: 192 + 112 = 304 us.
  EXPECT_EQ(ppdu_airtime(kDsss1, 14), microseconds(304));
}

TEST(Airtime, MonotonicInSizeAndRate) {
  EXPECT_LT(ppdu_airtime(kOfdm24, 100), ppdu_airtime(kOfdm24, 1000));
  EXPECT_GT(ppdu_airtime(kOfdm6, 500), ppdu_airtime(kOfdm54, 500));
}

TEST(ControlResponseRate, PicksHighestBasicRateNotAbove) {
  EXPECT_EQ(control_response_rate(kOfdm54), kOfdm24);
  EXPECT_EQ(control_response_rate(kOfdm24), kOfdm24);
  EXPECT_EQ(control_response_rate(kOfdm18), kOfdm12);
  EXPECT_EQ(control_response_rate(kOfdm9), kOfdm6);
  EXPECT_EQ(control_response_rate(kOfdm6), kOfdm6);
  EXPECT_EQ(control_response_rate(kDsss11), kDsss2);
  EXPECT_EQ(control_response_rate(kDsss1), kDsss1);
}

// --- Propagation -----------------------------------------------------------------------

TEST(Propagation, FreeSpaceReferenceLoss) {
  // FSPL at 1 m, 2.437 GHz: ~40.2 dB.
  const LogDistancePathLoss model({.exponent = 2.0}, 2.437e9);
  EXPECT_NEAR(model.reference_loss_db(), 40.2, 0.3);
}

TEST(Propagation, LossGrowsWithDistanceAndExponent) {
  const LogDistancePathLoss n2({.exponent = 2.0}, 2.437e9);
  const LogDistancePathLoss n35({.exponent = 3.5}, 2.437e9);
  EXPECT_LT(n2.loss_db(10.0), n2.loss_db(100.0));
  EXPECT_LT(n2.loss_db(100.0), n35.loss_db(100.0));
  // Decade rule: +10n dB per decade.
  EXPECT_NEAR(n2.loss_db(100.0) - n2.loss_db(10.0), 20.0, 1e-9);
  EXPECT_NEAR(n35.loss_db(100.0) - n35.loss_db(10.0), 35.0, 1e-9);
}

TEST(Propagation, ShadowingRequiresRng) {
  const LogDistancePathLoss model(
      {.exponent = 3.0, .shadowing_sigma_db = 6.0}, 2.437e9);
  // Without an RNG the model is deterministic.
  EXPECT_DOUBLE_EQ(model.loss_db(50.0), model.loss_db(50.0));
  Rng rng(3);
  const double a = model.loss_db(50.0, &rng);
  const double b = model.loss_db(50.0, &rng);
  EXPECT_NE(a, b);
}

// --- Error model ------------------------------------------------------------------------

TEST(ErrorModel, FerMonotonicInSnr) {
  double prev = 1.0;
  for (double snr = -5.0; snr <= 30.0; snr += 5.0) {
    const double fer = frame_error_rate(kOfdm24, snr, 200);
    EXPECT_LE(fer, prev + 1e-12);
    prev = fer;
  }
}

TEST(ErrorModel, FerMonotonicInSize) {
  EXPECT_LE(frame_error_rate(kOfdm24, 12.0, 50),
            frame_error_rate(kOfdm24, 12.0, 1500));
}

TEST(ErrorModel, GoodSnrMeansReliableFrames) {
  EXPECT_LT(frame_error_rate(kOfdm24, 30.0, 1500), 1e-3);
  EXPECT_LT(frame_error_rate(kOfdm6, 15.0, 100), 1e-3);
}

TEST(ErrorModel, TerribleSnrMeansLoss) {
  EXPECT_GT(frame_error_rate(kOfdm54, 3.0, 1500), 0.9);
}

TEST(ErrorModel, RobustRatesBeatFastRates) {
  const double snr = 10.0;
  EXPECT_LT(frame_error_rate(kOfdm6, snr, 500),
            frame_error_rate(kOfdm54, snr, 500));
}

// The medium settles a frame-loss decision from the FER at the two ends
// of its SINR's cell, which is exact only if the FER never rises across
// a cell by more than kFerBracketSlack. Every rate, frame lengths from
// an ACK to the largest MPDU, and every cell from the preamble-detect
// floor to 70 dB: 16 interior points per cell plus the nextafter
// neighbours of both ends.
TEST(ErrorModel, FerIsMonotoneWithinEveryCell) {
  const PhyRate rates[] = {kDsss1,  kDsss2,  kDsss11, kOfdm6,  kOfdm9,
                           kOfdm12, kOfdm18, kOfdm24, kOfdm36, kOfdm48,
                           kOfdm54};
  const std::size_t lengths[] = {14, 20, 28, 34, 60, 104, 200, 500, 1500, 2304};
  constexpr int kInterior = 16;
  std::uint64_t samples = 0;
  std::uint64_t violations = 0;
  double worst = 0.0;  // largest rise of the FER within a cell
  std::string worst_at = "none";
  for (const PhyRate& rate : rates) {
    for (const std::size_t octets : lengths) {
      for (double cell = kPreambleDetectSnrDb * kFerCellsPerDb;
           cell < 70.0 * kFerCellsPerDb; cell += 1.0) {
        const double lo = cell / kFerCellsPerDb;
        const double hi = (cell + 1.0) / kFerCellsPerDb;
        const double fer_lo = frame_error_rate(rate, lo, octets);
        const double fer_hi = frame_error_rate(rate, hi, octets);
        const auto check = [&](double snr) {
          const double fer = frame_error_rate(rate, snr, octets);
          ++samples;
          // The two comparisons Medium::frame_lost settles a decision by.
          if (fer > fer_lo + kFerBracketSlack ||
              fer < fer_hi - kFerBracketSlack) {
            ++violations;
          }
          const double rise = std::max(fer - fer_lo, fer_hi - fer);
          if (rise > worst) {
            worst = rise;
            worst_at = rate.name() + ", " + std::to_string(octets) +
                       " octets, cell " + std::to_string(lo) + " dB";
          }
        };
        for (int k = 1; k <= kInterior; ++k) {
          check(lo + k / ((kInterior + 1) * kFerCellsPerDb));
        }
        check(std::nextafter(lo, hi));
        check(std::nextafter(hi, lo));
      }
    }
  }
  EXPECT_GT(samples, 8'000'000u);
  EXPECT_EQ(violations, 0u) << "worst rise " << worst << " (" << worst_at
                            << ") against a slack of " << kFerBracketSlack
                            << " over " << samples << " samples";
  char rise[32];
  std::snprintf(rise, sizeof rise, "%.3g", worst);
  RecordProperty("worst_rise", rise);
}

TEST(ErrorModel, BatchMatchesScalarBitForBit) {
  // frame_error_rate_batch hoists the per-rate curve out of the loop; it
  // must agree with the scalar path to the last bit — EXPECT_EQ on
  // doubles here, never near-equality. The grid spans the
  // whole operating range: deep loss, the waterfall region, and SNRs
  // where FER underflows to 0.
  const PhyRate rates[] = {kDsss1,  kDsss2,  kDsss11, kOfdm6,  kOfdm9,
                           kOfdm12, kOfdm18, kOfdm24, kOfdm36, kOfdm48,
                           kOfdm54};
  std::vector<double> snr_db;
  for (double s = -12.0; s <= 44.0; s += 0.25) snr_db.push_back(s);
  std::vector<double> batch(snr_db.size());
  for (const PhyRate& rate : rates) {
    for (const std::size_t octets : {std::size_t{26}, std::size_t{1536}}) {
      frame_error_rate_batch(rate, snr_db, octets, batch);
      for (std::size_t i = 0; i < snr_db.size(); ++i) {
        EXPECT_EQ(batch[i], frame_error_rate(rate, snr_db[i], octets))
            << rate.name() << " @ " << snr_db[i] << " dB, " << octets
            << " octets";
      }
    }
  }
}

// --- CSI model ------------------------------------------------------------------------------

TEST(Csi, SnapshotHasAllSubcarriers) {
  Rng rng(1);
  const auto paths = make_static_paths(5.0, 4, rng);
  Rng noise(2);
  const auto snap = evaluate_csi(2.437e9, paths, {}, 0.0, noise, kSimStart);
  EXPECT_EQ(snap.h.size(), std::size_t(kNumSubcarriers));
  for (int k = 0; k < kNumSubcarriers; ++k) {
    EXPECT_GT(snap.amplitude(k), 0.0) << "subcarrier " << k;
  }
}

TEST(Csi, DeterministicWithoutNoise) {
  Rng rng1(7), rng2(7);
  const auto p1 = make_static_paths(5.0, 4, rng1);
  const auto p2 = make_static_paths(5.0, 4, rng2);
  EXPECT_EQ(p1, p2);
  Rng n1(1), n2(1);
  const auto s1 = evaluate_csi(2.437e9, p1, {}, 0.0, n1, kSimStart);
  const auto s2 = evaluate_csi(2.437e9, p2, {}, 0.0, n2, kSimStart);
  for (int k = 0; k < kNumSubcarriers; ++k) {
    EXPECT_DOUBLE_EQ(s1.amplitude(k), s2.amplitude(k));
  }
}

TEST(Csi, StaticSceneIsStableAcrossTime) {
  Rng rng(7);
  const auto paths = make_static_paths(5.0, 4, rng);
  Rng noise(1);
  const auto s1 = evaluate_csi(2.437e9, paths, {}, 0.0, noise, kSimStart);
  const auto s2 =
      evaluate_csi(2.437e9, paths, {}, 0.0, noise, kSimStart + seconds(10));
  for (int k = 0; k < kNumSubcarriers; ++k) {
    EXPECT_DOUBLE_EQ(s1.amplitude(k), s2.amplitude(k));
  }
}

TEST(Csi, MovingScattererChangesAmplitude) {
  // A dynamic path whose delay shifts by a fraction of a wavelength must
  // visibly move the subcarrier amplitudes — the sensing signal.
  Rng rng(7);
  const auto statics = make_static_paths(5.0, 4, rng);
  Rng noise(1);

  const PathSet hand1{{.delay_ns = 20.0, .amplitude = 0.45, .phase_rad = M_PI}};
  const PathSet hand2{{.delay_ns = 20.2, .amplitude = 0.45, .phase_rad = M_PI}};
  const auto s1 = evaluate_csi(2.437e9, statics, hand1, 0.0, noise, kSimStart);
  const auto s2 = evaluate_csi(2.437e9, statics, hand2, 0.0, noise, kSimStart);

  double max_delta = 0.0;
  for (int k = 0; k < kNumSubcarriers; ++k) {
    max_delta = std::max(max_delta, std::abs(s1.amplitude(k) - s2.amplitude(k)));
  }
  EXPECT_GT(max_delta, 0.05);
}

TEST(Csi, FrequencySelectivity) {
  // Multipath makes different subcarriers see different gains.
  Rng rng(11);
  const auto paths = make_static_paths(8.0, 5, rng);
  Rng noise(1);
  const auto s = evaluate_csi(5.18e9, paths, {}, 0.0, noise, kSimStart);
  double lo = 1e9, hi = 0.0;
  for (int k = 0; k < kNumSubcarriers; ++k) {
    lo = std::min(lo, s.amplitude(k));
    hi = std::max(hi, s.amplitude(k));
  }
  EXPECT_GT(hi - lo, 0.05);
}

TEST(Csi, NoiseBroadensRepeatMeasurements) {
  Rng rng(7);
  const auto paths = make_static_paths(5.0, 3, rng);
  Rng noise(1);
  const auto s1 = evaluate_csi(2.437e9, paths, {}, 0.05, noise, kSimStart);
  const auto s2 = evaluate_csi(2.437e9, paths, {}, 0.05, noise, kSimStart);
  double delta = 0.0;
  for (int k = 0; k < kNumSubcarriers; ++k) {
    delta += std::abs(s1.amplitude(k) - s2.amplitude(k));
  }
  EXPECT_GT(delta, 0.0);
}

// --- Parameterized rate sweep -------------------------------------------------------------

class RateSweep : public ::testing::TestWithParam<PhyRate> {};

TEST_P(RateSweep, AirtimeConsistentWithInfoRate) {
  const PhyRate rate = GetParam();
  // For a large frame the airtime approaches 8*bits/rate (preamble
  // amortized): check within 20%.
  const std::size_t octets = 1500;
  const double airtime_us = to_microseconds(ppdu_airtime(rate, octets));
  const double ideal_us = 8.0 * double(octets) / rate.mbps;
  EXPECT_GT(airtime_us, ideal_us);
  EXPECT_LT(airtime_us, ideal_us * 1.2 + 200.0);
}

TEST_P(RateSweep, ControlResponseNeverFaster) {
  const PhyRate rate = GetParam();
  EXPECT_LE(control_response_rate(rate).mbps, rate.mbps);
}

INSTANTIATE_TEST_SUITE_P(AllRates, RateSweep,
                         ::testing::Values(kOfdm6, kOfdm9, kOfdm12, kOfdm18,
                                           kOfdm24, kOfdm36, kOfdm48, kOfdm54,
                                           kDsss1, kDsss2, kDsss11),
                         [](const auto& info) {
                           std::string n = info.param.name();
                           for (auto& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace politewifi::phy
