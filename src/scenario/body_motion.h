// Human-activity models that drive the dynamic multipath.
//
// Each activity modulates the excess path length of one or two
// body-scattered propagation paths. Because CSI phase rotates a full turn
// per wavelength of path change (12.5 cm @ 2.4 GHz, 5.8 cm @ 5 GHz):
//   - stillness        -> flat amplitude (Figure 5 "on the ground")
//   - picking up       -> ~1 m sweep = many turns = wild swings
//   - holding          -> mm-scale tremor = gentle wander
//   - typing           -> cm-scale keystroke bumps = distinct bursts
//   - walking          -> periodic metre-scale sweeps (the §4.3 events)
//   - breathing        -> ~1 cm periodic chest motion at 0.2-0.3 Hz
// This is exactly the physics the paper's Figure 5 rides on.
#pragma once

#include <string>
#include <vector>

#include "common/clock.h"
#include "phy/csi.h"
#include "scenario/typing_model.h"

namespace politewifi::scenario {

enum class Activity : std::uint8_t {
  kAbsent,     // nobody near the device
  kStill,      // person present but motionless
  kPickup,     // approach + pick the device up
  kHold,       // holding, not typing
  kTyping,     // typing (keystroke schedule attached)
  kWalking,    // walking through the scene
  kBreathing,  // sitting still, breathing only
};

/// A scripted activity timeline that yields dynamic propagation paths.
class BodyMotionModel {
 public:
  struct Config {
    /// Excess delay of the body-scattered path relative to LOS (ns).
    double scatterer_delay_ns = 15.0;
    /// Reflection amplitude of the hand path (relative to LOS = 1).
    double hand_amplitude = 0.45;
    /// Reflection amplitude of the torso path.
    double body_amplitude = 0.30;
    /// Breathing rate used by kBreathing (breaths per minute).
    double breathing_bpm = 15.0;
    std::uint64_t seed = 99;
  };

  BodyMotionModel() : BodyMotionModel(Config{}) {}
  explicit BodyMotionModel(Config config);

  /// Appends a phase to the script.
  void add_phase(Activity activity, Duration duration);

  /// Registers keystrokes (script-relative times). Bumps apply whenever
  /// the active phase is kTyping.
  void set_keystrokes(std::vector<Keystroke> strokes) {
    keystrokes_ = std::move(strokes);
  }
  const std::vector<Keystroke>& keystrokes() const { return keystrokes_; }

  Duration total_duration() const { return total_; }

  /// Dynamic paths at script time `t`.
  phy::PathSet paths_at(Duration t) const;

  /// Ground truth for evaluating segmentation: phase boundaries.
  struct Phase {
    Activity activity;
    Duration start;
    Duration end;
  };
  const std::vector<Phase>& phases() const { return phases_; }

 private:
  /// Excess path-length deflections (meters) of hand and torso at local
  /// phase time `t` into a phase of length `len`.
  struct Deflection {
    double hand_m = 0.0;
    double body_m = 0.0;
    bool present = true;
  };
  Deflection deflection(Activity a, double t_s, double len_s,
                        Duration script_t) const;

  Config config_;
  std::vector<Phase> phases_;
  Duration total_ = Duration::zero();
  std::vector<Keystroke> keystrokes_;
  // Deterministic per-model oscillator phases.
  double phase1_, phase2_, phase3_;
};

}  // namespace politewifi::scenario
