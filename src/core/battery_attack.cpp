#include "core/battery_attack.h"

namespace politewifi::core {

BatteryDrainAttack::BatteryDrainAttack(sim::Simulation& sim,
                                       sim::Device& attacker,
                                       sim::Device& victim,
                                       InjectorConfig config)
    : sim_(sim), victim_(victim), injector_(attacker, config) {}

BatteryAttackResult BatteryDrainAttack::run(double rate_pps, Duration warmup,
                                            Duration measure) {
  if (rate_pps > 0.0) {
    injector_.start_stream(victim_.address(), rate_pps);
  }
  sim_.run_for(warmup);

  auto& meter = victim_.radio().energy();
  meter.reset(sim_.now());
  const std::uint64_t acks_before = victim_.station().stats().acks_sent;
  const std::uint64_t injected_before = injector_.stats().frames_injected;

  sim_.run_for(measure);

  BatteryAttackResult result;
  result.rate_pps = rate_pps;
  result.avg_power_mw = meter.average_mw(sim_.now());
  result.sleep_fraction =
      to_seconds(meter.dwell(sim::RadioState::kSleep)) / to_seconds(measure);
  result.acks_elicited = victim_.station().stats().acks_sent - acks_before;
  result.frames_injected =
      injector_.stats().frames_injected - injected_before;

  injector_.stop_all();
  return result;
}

CameraDrainProjection project_drain(const std::string& camera,
                                    double battery_mwh,
                                    double attack_power_mw) {
  return CameraDrainProjection{
      .camera = camera,
      .battery_mwh = battery_mwh,
      .attack_power_mw = attack_power_mw,
      .hours_to_empty =
          attack_power_mw > 0.0 ? battery_mwh / attack_power_mw : 1e9,
  };
}

}  // namespace politewifi::core

namespace politewifi::core {

common::Json BatteryAttackResult::to_json() const {
  common::Json j;
  j["rate_pps"] = rate_pps;
  j["avg_power_mw"] = avg_power_mw;
  j["sleep_fraction"] = sleep_fraction;
  j["acks_elicited"] = acks_elicited;
  j["frames_injected"] = frames_injected;
  return j;
}

common::Json CameraDrainProjection::to_json() const {
  common::Json j;
  j["camera"] = camera;
  j["battery_mwh"] = battery_mwh;
  j["attack_power_mw"] = attack_power_mw;
  j["hours_to_empty"] = hours_to_empty;
  return j;
}

}  // namespace politewifi::core
