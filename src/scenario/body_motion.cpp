#include "scenario/body_motion.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace politewifi::scenario {

namespace {

constexpr double kMetersPerNs = 0.299792458;

double smoothstep(double x) {
  x = std::clamp(x, 0.0, 1.0);
  return x * x * (3.0 - 2.0 * x);
}

}  // namespace

BodyMotionModel::BodyMotionModel(Config config) : config_(config) {
  Rng rng(config.seed);
  phase1_ = rng.uniform(0.0, 2.0 * M_PI);
  phase2_ = rng.uniform(0.0, 2.0 * M_PI);
  phase3_ = rng.uniform(0.0, 2.0 * M_PI);
}

void BodyMotionModel::add_phase(Activity activity, Duration duration) {
  phases_.push_back(Phase{activity, total_, total_ + duration});
  total_ += duration;
}

BodyMotionModel::Deflection BodyMotionModel::deflection(
    Activity a, double t, double len, Duration script_t) const {
  Deflection d;
  switch (a) {
    case Activity::kAbsent:
      d.present = false;
      return d;

    case Activity::kStill:
      // Motionless person: static extra scatterer, micro-sway < 1 mm.
      d.hand_m = 0.0005 * std::sin(2.0 * M_PI * 0.3 * t + phase1_);
      d.body_m = 0.0;
      return d;

    case Activity::kPickup: {
      // Approach + reach + lift: the hand path sweeps ~0.9 m over the
      // phase with a brisk reach in the middle.
      const double progress = smoothstep(t / std::max(len, 0.1));
      d.hand_m = 0.9 * progress +
                 0.03 * std::sin(2.0 * M_PI * 2.4 * t + phase2_);
      d.body_m = 0.45 * progress;
      return d;
    }

    case Activity::kHold:
      // Physiological tremor + slow drift: millimetres.
      d.hand_m = 0.004 * std::sin(2.0 * M_PI * 1.7 * t + phase1_) +
                 0.002 * std::sin(2.0 * M_PI * 3.1 * t + phase2_) +
                 0.003 * std::sin(2.0 * M_PI * 0.4 * t + phase3_);
      d.body_m = 0.002 * std::sin(2.0 * M_PI * 0.3 * t + phase3_);
      return d;

    case Activity::kTyping: {
      // Hold-level tremor plus the keystroke bumps.
      d = deflection(Activity::kHold, t, len, script_t);
      const double ts = to_seconds(script_t);
      for (const auto& k : keystrokes_) {
        const double tk = to_seconds(k.at);
        const double sigma = to_seconds(keystroke_width(k.key));
        const double dt = ts - tk;
        if (std::abs(dt) > 4.0 * sigma) continue;
        d.hand_m += keystroke_depth_m(k.key) *
                    std::exp(-dt * dt / (2.0 * sigma * sigma));
      }
      return d;
    }

    case Activity::kWalking:
      // Metre-scale periodic sweep (crossing the scene at ~1 m/s) plus
      // gait bounce.
      d.hand_m = 1.2 * std::sin(2.0 * M_PI * 0.45 * t + phase1_) +
                 0.05 * std::sin(2.0 * M_PI * 1.9 * t + phase2_);
      d.body_m = 1.2 * std::sin(2.0 * M_PI * 0.45 * t + phase1_ + 0.4);
      return d;

    case Activity::kBreathing: {
      const double f = config_.breathing_bpm / 60.0;
      d.hand_m = 0.0;
      d.body_m = 0.012 * std::sin(2.0 * M_PI * f * t + phase1_);
      return d;
    }
  }
  d.present = false;
  return d;
}

phy::PathSet BodyMotionModel::paths_at(Duration t) const {
  const Phase* phase = nullptr;
  for (const auto& p : phases_) {
    if (t >= p.start && t < p.end) {
      phase = &p;
      break;
    }
  }
  if (phase == nullptr) return {};

  const double local = to_seconds(t - phase->start);
  const double len = to_seconds(phase->end - phase->start);
  const Deflection d = deflection(phase->activity, local, len, t);
  if (!d.present) return {};

  phy::PathSet paths;
  paths.push_back(phy::PropagationPath{
      .delay_ns = config_.scatterer_delay_ns + d.hand_m / kMetersPerNs,
      .amplitude = config_.hand_amplitude,
      .phase_rad = M_PI,  // reflection inversion
  });
  paths.push_back(phy::PropagationPath{
      .delay_ns = config_.scatterer_delay_ns + 6.0 + d.body_m / kMetersPerNs,
      .amplitude = config_.body_amplitude,
      .phase_rad = M_PI,
  });
  return paths;
}

}  // namespace politewifi::scenario
