// Keystroke inference from ACK CSI (§4.1, WindTalker-style).
//
// Pipeline: denoise the amplitude stream, compute short-window deviation,
// pick peaks (keystroke events), then classify each event's magnitude
// against the row templates. We deliberately claim row-level (not
// key-level) recovery — consistent with what the physics gives a single
// 52-subcarrier receiver, and enough to demonstrate "passwords could be
// leaked" the way the paper argues.
#pragma once

#include <vector>

#include "common/json.h"
#include "sensing/activity.h"
#include "sensing/features.h"

namespace politewifi::sensing {

struct KeystrokeEvent {
  double time_s = 0.0;
  double magnitude = 0.0;  // peak deviation
  int estimated_row = 2;   // keyboard row estimate (0 space .. 4 numbers)

  common::Json to_json() const;
};

struct KeystrokeDetectorConfig {
  /// Deviation window (seconds): about one keystroke.
  double window_s = 0.20;
  /// Peak threshold as a multiple of the noise floor.
  double threshold_factor = 4.0;
  /// Peak threshold as a fraction of the largest deviation peak — kills
  /// noise peaklets once real keystrokes dominate the trace.
  double peak_fraction = 0.25;
  /// Minimum inter-keystroke separation, seconds.
  double min_separation_s = 0.12;
  /// Low-pass cutoff before detection (Hz).
  double lowpass_hz = 12.0;
};

class KeystrokeDetector {
 public:
  explicit KeystrokeDetector(KeystrokeDetectorConfig config);
  KeystrokeDetector() : KeystrokeDetector(KeystrokeDetectorConfig{}) {}

  /// Detects keystroke events in an amplitude series (ideally restricted
  /// to a typing segment found by ActivityDetector).
  std::vector<KeystrokeEvent> detect(const TimeSeries& amplitude) const;

 private:
  KeystrokeDetectorConfig config_;
};

/// Scoring helpers used by benches/tests against ground truth.
struct KeystrokeMatchScore {
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t misses = 0;

  double precision() const {
    const auto d = true_positives + false_positives;
    return d == 0 ? 0.0 : double(true_positives) / double(d);
  }
  double recall() const {
    const auto d = true_positives + misses;
    return d == 0 ? 0.0 : double(true_positives) / double(d);
  }
  double f1() const {
    const double p = precision(), r = recall();
    return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }

  common::Json to_json() const;
};

/// Matches detected events to ground-truth times with a tolerance.
KeystrokeMatchScore match_keystrokes(const std::vector<KeystrokeEvent>& events,
                                     const std::vector<double>& truth_times_s,
                                     double tolerance_s = 0.15);

}  // namespace politewifi::sensing
