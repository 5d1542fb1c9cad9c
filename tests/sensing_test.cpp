// Sensing pipeline unit tests: series statistics, filters, features,
// activity segmentation, keystroke detection, vitals and resampling — on
// synthetic signals with known answers.
#include <gtest/gtest.h>

#include <cmath>

#include "sensing/activity.h"
#include "sensing/filters.h"
#include "sensing/keystroke.h"
#include "sensing/vitals.h"

namespace politewifi::sensing {
namespace {

TimeSeries make_series(std::vector<double> v, double fs = 100.0) {
  return TimeSeries{.t0_s = 0.0, .dt_s = 1.0 / fs, .v = std::move(v)};
}

std::vector<double> sine(double freq, double fs, double secs,
                         double amp = 1.0, double dc = 0.0) {
  std::vector<double> v;
  const std::size_t n = std::size_t(fs * secs);
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(dc + amp * std::sin(2.0 * M_PI * freq * double(i) / fs));
  }
  return v;
}

// --- Statistics ---------------------------------------------------------------

TEST(SeriesStats, MeanVarianceStddev) {
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(variance(v), 32.0 / 7.0, 1e-12);
}

TEST(SeriesStats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(SeriesStats, Mad) {
  // MAD of {1,1,2,2,4,6,9} about median 2 is 1.
  EXPECT_DOUBLE_EQ(median_absolute_deviation({1, 1, 2, 2, 4, 6, 9}), 1.0);
}

// --- Filters -------------------------------------------------------------------

TEST(Filters, MovingAverageSmoothsConstantPerfectly) {
  const std::vector<double> v(50, 3.0);
  const auto out = moving_average(v, 7);
  for (const double x : out) EXPECT_DOUBLE_EQ(x, 3.0);
}

TEST(Filters, MovingAverageReducesNoiseVariance) {
  Rng rng(1);
  std::vector<double> noise;
  for (int i = 0; i < 2000; ++i) noise.push_back(rng.gaussian());
  const auto smoothed = moving_average(noise, 9);
  EXPECT_LT(variance(smoothed), variance(noise) / 4.0);
}

TEST(Filters, HampelReplacesOutliersOnly) {
  std::vector<double> v = sine(1.0, 100.0, 1.0);
  v[37] += 25.0;  // spike
  const auto out = hampel_filter(v, 9, 3.0);
  EXPECT_LT(std::abs(out[37]), 2.0);
  // Non-outlier samples untouched.
  EXPECT_DOUBLE_EQ(out[5], v[5]);
}

TEST(Filters, ButterworthPassesLowBlocksHigh) {
  const double fs = 100.0;
  const auto low = sine(1.0, fs, 4.0);
  const auto high = sine(30.0, fs, 4.0);
  ButterworthLowPass f1(5.0, fs), f2(5.0, fs);
  const auto low_out = f1.apply(low);
  const auto high_out = f2.apply(high);
  // Steady-state amplitude comparison over the second half.
  auto rms_tail = [](const std::vector<double>& v) {
    double s = 0.0;
    for (std::size_t i = v.size() / 2; i < v.size(); ++i) s += v[i] * v[i];
    return std::sqrt(s / double(v.size() / 2));
  };
  EXPECT_GT(rms_tail(low_out), 0.9 / std::sqrt(2.0));
  EXPECT_LT(rms_tail(high_out), 0.05);
}

TEST(Filters, FiltFiltPreservesLength) {
  const auto v = sine(2.0, 100.0, 1.0);
  EXPECT_EQ(butterworth_filtfilt(v, 10.0, 100.0).size(), v.size());
}

// --- Features --------------------------------------------------------------------

TEST(Features, MovingVarianceFlatVsNoisy) {
  std::vector<double> v(200, 1.0);
  for (std::size_t i = 100; i < 200; ++i) {
    v[i] = 1.0 + ((i % 2 == 0) ? 0.5 : -0.5);
  }
  const auto mv = moving_variance(v, 21);
  EXPECT_LT(mv[50], 1e-12);
  EXPECT_GT(mv[150], 0.1);
}

TEST(Features, GoertzelFindsTheTone) {
  const double fs = 100.0;
  const auto v = sine(7.0, fs, 4.0);
  EXPECT_GT(goertzel_power(v, 7.0, fs), 10.0 * goertzel_power(v, 3.0, fs));
}

TEST(Features, FindPeaksRespectsThresholdAndSeparation) {
  std::vector<double> v(100, 0.0);
  v[10] = 5.0;
  v[12] = 4.0;  // within separation of the taller one
  v[50] = 3.0;
  v[90] = 0.5;  // below threshold
  const auto peaks = find_peaks(v, 1.0, 10);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0], 10u);
  EXPECT_EQ(peaks[1], 50u);
}

// --- Activity segmentation ------------------------------------------------------------

TEST(Activity, ThreePhaseSegmentation) {
  // still (0-5 s), strong motion (5-10 s), still (10-15 s) at 100 Hz.
  Rng rng(2);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(10.0 + 0.01 * rng.gaussian());
  for (int i = 0; i < 500; ++i) {
    v.push_back(10.0 + 3.0 * std::sin(2.0 * M_PI * 2.0 * i / 100.0) +
                0.01 * rng.gaussian());
  }
  for (int i = 0; i < 500; ++i) v.push_back(10.0 + 0.01 * rng.gaussian());

  ActivityDetector detector;
  const auto segments = detector.segment(make_series(v));
  ASSERT_GE(segments.size(), 3u);
  EXPECT_EQ(segments.front().cls, MotionClass::kStill);
  EXPECT_EQ(segments.back().cls, MotionClass::kStill);
  bool saw_major = false;
  for (const auto& s : segments) {
    if (s.cls == MotionClass::kMajor) {
      saw_major = true;
      EXPECT_NEAR(s.start_s, 5.0, 1.0);
    }
  }
  EXPECT_TRUE(saw_major);
}

TEST(Activity, MotionEventsAtTransitions) {
  Rng rng(3);
  std::vector<double> v;
  auto still = [&](int n) {
    for (int i = 0; i < n; ++i) v.push_back(5.0 + 0.01 * rng.gaussian());
  };
  auto moving = [&](int n) {
    for (int i = 0; i < n; ++i) {
      v.push_back(5.0 + 2.0 * std::sin(2.0 * M_PI * 3.0 * i / 100.0));
    }
  };
  still(900);    // 0-9 s
  moving(300);   // 9-12 s   <- event at ~9 s
  still(2000);   // 12-32 s
  moving(300);   // 32-35 s  <- event at ~32 s (the paper's §4.3 times!)
  still(500);

  ActivityDetector detector;
  const auto events = detector.motion_events(make_series(v));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NEAR(events[0], 9.0, 1.0);
  EXPECT_NEAR(events[1], 32.0, 1.0);
}

TEST(Activity, AllStillGivesOneSegment) {
  Rng rng(4);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(1.0 + 0.01 * rng.gaussian());
  ActivityDetector detector;
  const auto segments = detector.segment(make_series(v));
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].cls, MotionClass::kStill);
}

// --- Keystroke detection ---------------------------------------------------------------

std::vector<double> typing_signal(const std::vector<double>& stroke_times,
                                  double fs, double secs, Rng& rng,
                                  double depth = 1.0) {
  std::vector<double> v;
  const std::size_t n = std::size_t(fs * secs);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = double(i) / fs;
    double x = 10.0 + 0.005 * rng.gaussian();
    for (const double tk : stroke_times) {
      const double dt = t - tk;
      x += depth * std::exp(-dt * dt / (2.0 * 0.04 * 0.04));
    }
    v.push_back(x);
  }
  return v;
}

TEST(Keystroke, DetectsPlantedStrokes) {
  Rng rng(5);
  const std::vector<double> truth{1.0, 1.5, 2.1, 2.8, 3.3, 4.0};
  const auto v = typing_signal(truth, 150.0, 5.0, rng);
  KeystrokeDetector detector;
  const auto events = detector.detect(make_series(v, 150.0));
  const auto score = match_keystrokes(events, truth);
  EXPECT_GE(score.recall(), 0.8);
  EXPECT_GE(score.precision(), 0.8);
}

TEST(Keystroke, QuietSignalYieldsNothing) {
  Rng rng(6);
  const auto v = typing_signal({}, 150.0, 5.0, rng);
  KeystrokeDetector detector;
  EXPECT_TRUE(detector.detect(make_series(v, 150.0)).empty());
}

TEST(Keystroke, MatchScoring) {
  std::vector<KeystrokeEvent> events{{.time_s = 1.0}, {.time_s = 5.0}};
  const auto score = match_keystrokes(events, {1.05, 2.0}, 0.15);
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_EQ(score.false_positives, 1u);
  EXPECT_EQ(score.misses, 1u);
  EXPECT_NEAR(score.f1(), 0.5, 1e-9);
}

// --- Vitals ------------------------------------------------------------------------------

TEST(Vitals, BreathingRateRecovered) {
  // 15 breaths/minute = 0.25 Hz chest motion.
  Rng rng(7);
  auto v = sine(0.25, 20.0, 60.0, 0.3, 10.0);
  for (auto& x : v) x += 0.02 * rng.gaussian();
  const auto est = estimate_breathing(make_series(v, 20.0));
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->rate_bpm, 15.0, 1.0);
}

TEST(Vitals, NoBreathingInFlatSignal) {
  Rng rng(8);
  std::vector<double> v;
  for (int i = 0; i < 1200; ++i) v.push_back(10.0 + 0.02 * rng.gaussian());
  EXPECT_FALSE(estimate_breathing(make_series(v, 20.0)).has_value());
}

TEST(Vitals, OccupancyDetection) {
  Rng rng(9);
  std::vector<double> quiet;
  for (int i = 0; i < 1000; ++i) quiet.push_back(5.0 + 0.01 * rng.gaussian());
  EXPECT_FALSE(detect_occupancy(make_series(quiet)));

  std::vector<double> busy = quiet;
  for (int i = 400; i < 600; ++i) {
    busy[i] += 2.0 * std::sin(2.0 * M_PI * 1.5 * i / 100.0);
  }
  EXPECT_TRUE(detect_occupancy(make_series(busy)));
}

// --- Resampling -----------------------------------------------------------------------------

TEST(Resample, UniformGridFromIrregularSamples) {
  std::vector<phy::CsiSample> samples;
  Rng rng(10);
  phy::PathSet paths{{.delay_ns = 10, .amplitude = 1.0}};
  double t = 0.0;
  for (int i = 0; i < 100; ++i) {
    phy::CsiSample s;
    s.time = kSimStart + from_seconds(t);
    Rng noise(i);
    s.csi = phy::evaluate_csi(2.437e9, paths, {}, 0.0, noise, s.time);
    samples.push_back(s);
    t += 0.01 + rng.uniform(0.0, 0.004);  // irregular ~80 Hz
  }
  const auto series = resample_amplitude(samples, 17, 100.0);
  EXPECT_NEAR(series.dt_s, 0.01, 1e-12);
  EXPECT_GT(series.size(), 100u);
  for (const double x : series.v) EXPECT_GT(x, 0.0);
}

TEST(Resample, EmptyInput) {
  EXPECT_TRUE(resample_amplitude({}, 17, 100.0).empty());
}

}  // namespace
}  // namespace politewifi::sensing
