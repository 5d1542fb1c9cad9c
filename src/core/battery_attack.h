// Battery-drain attack (§4.2) and the Figure 6 measurement harness.
//
// Bombards a power-saving victim with fake frames and measures its mean
// power draw. Nothing here models "attack power" directly — the numbers
// emerge from the victim's own power-save state machine (idle timer,
// beacon wakes) and per-frame RX/ACK-TX energy in the radio model.
#pragma once

#include "common/json.h"
#include "core/injector.h"
#include "sim/network.h"

namespace politewifi::core {

struct BatteryAttackResult {
  double rate_pps = 0.0;
  double avg_power_mw = 0.0;
  double sleep_fraction = 0.0;     // time spent dozing during measurement
  std::uint64_t acks_elicited = 0; // victim ACK count delta
  std::uint64_t frames_injected = 0;

  common::Json to_json() const;
};

class BatteryDrainAttack {
 public:
  /// `victim` should be a power-save client (ESP8266-class profile).
  BatteryDrainAttack(sim::Simulation& sim, sim::Device& attacker,
                     sim::Device& victim,
                     InjectorConfig config = InjectorConfig{});

  /// Runs the attack at `rate_pps` (0 = baseline, no attack): `warmup` to
  /// let the victim settle into its duty cycle, then a measured window.
  BatteryAttackResult run(double rate_pps, Duration warmup,
                          Duration measure);

 private:
  sim::Simulation& sim_;
  sim::Device& victim_;
  FakeFrameInjector injector_;
};

/// §4.2's closing arithmetic: hours to drain each camera battery at the
/// measured attack power.
struct CameraDrainProjection {
  std::string camera;
  double battery_mwh;
  double attack_power_mw;
  double hours_to_empty;

  common::Json to_json() const;
};

CameraDrainProjection project_drain(const std::string& camera,
                                    double battery_mwh,
                                    double attack_power_mw);

}  // namespace politewifi::core
