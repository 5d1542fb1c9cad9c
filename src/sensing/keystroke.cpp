#include "sensing/keystroke.h"

#include <algorithm>
#include <cmath>

#include "sensing/filters.h"

namespace politewifi::sensing {

KeystrokeDetector::KeystrokeDetector(KeystrokeDetectorConfig config)
    : config_(config) {}

std::vector<KeystrokeEvent> KeystrokeDetector::detect(
    const TimeSeries& amplitude) const {
  std::vector<KeystrokeEvent> events;
  if (amplitude.size() < 8 || amplitude.dt_s <= 0.0) return events;
  const double fs = 1.0 / amplitude.dt_s;

  // Denoise: outlier rejection + low-pass (keeps keystroke dynamics,
  // drops per-ACK estimation noise).
  auto clean = hampel_filter(amplitude.v, 7);
  if (config_.lowpass_hz < fs / 2.0) {
    clean = butterworth_filtfilt(clean, config_.lowpass_hz, fs);
  }

  const int w = std::max(3, int(std::lround(config_.window_s / amplitude.dt_s)));
  // Smooth the deviation envelope so the two slopes of one keystroke bump
  // merge into a single peak centred on the stroke.
  const auto dev = moving_average(moving_stddev(clean, w), w);

  // Noise floor: quietest decile of deviations.
  std::vector<double> sorted = dev;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t tenth = std::max<std::size_t>(1, sorted.size() / 10);
  double floor = 0.0;
  for (std::size_t i = 0; i < tenth; ++i) floor += sorted[i];
  floor = std::max(floor / double(tenth), 1e-9);

  double max_dev = 0.0;
  for (const double d : dev) max_dev = std::max(max_dev, d);
  const double threshold = std::max(config_.threshold_factor * floor,
                                    config_.peak_fraction * max_dev);
  const auto min_sep = static_cast<std::size_t>(
      std::max(1.0, config_.min_separation_s / amplitude.dt_s));
  const auto peaks = find_peaks(dev, threshold, min_sep);

  // Magnitude -> row template. Normalize by the largest detected peak so
  // the mapping is scene-gain independent, then split into quartiles
  // aligned with the relative depths in scenario::keystroke_depth_m
  // (home < bottom < top < numbers < space).
  double max_mag = 0.0;
  for (const auto p : peaks) max_mag = std::max(max_mag, dev[p]);

  for (const auto p : peaks) {
    KeystrokeEvent e;
    e.time_s = amplitude.time_of(p);
    e.magnitude = dev[p];
    const double rel = max_mag > 0.0 ? dev[p] / max_mag : 0.0;
    if (rel > 0.92) {
      e.estimated_row = 0;  // space (largest motion)
    } else if (rel > 0.75) {
      e.estimated_row = 4;  // number row
    } else if (rel > 0.60) {
      e.estimated_row = 3;  // top row
    } else if (rel > 0.45) {
      e.estimated_row = 1;  // bottom row
    } else {
      e.estimated_row = 2;  // home row
    }
    events.push_back(e);
  }
  return events;
}

KeystrokeMatchScore match_keystrokes(const std::vector<KeystrokeEvent>& events,
                                     const std::vector<double>& truth_times_s,
                                     double tolerance_s) {
  KeystrokeMatchScore score;
  std::vector<bool> used(truth_times_s.size(), false);
  for (const auto& e : events) {
    bool matched = false;
    for (std::size_t i = 0; i < truth_times_s.size(); ++i) {
      if (!used[i] && std::abs(truth_times_s[i] - e.time_s) <= tolerance_s) {
        used[i] = true;
        matched = true;
        break;
      }
    }
    if (matched) {
      ++score.true_positives;
    } else {
      ++score.false_positives;
    }
  }
  for (const bool u : used) {
    if (!u) ++score.misses;
  }
  return score;
}

}  // namespace politewifi::sensing

namespace politewifi::sensing {

common::Json KeystrokeEvent::to_json() const {
  common::Json j;
  j["time_s"] = time_s;
  j["magnitude"] = magnitude;
  j["estimated_row"] = estimated_row;
  return j;
}

common::Json KeystrokeMatchScore::to_json() const {
  common::Json j;
  j["true_positives"] = true_positives;
  j["false_positives"] = false_positives;
  j["misses"] = misses;
  j["precision"] = precision();
  j["recall"] = recall();
  j["f1"] = f1();
  return j;
}

}  // namespace politewifi::sensing
