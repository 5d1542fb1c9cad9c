#include "sim/network.h"

namespace politewifi::sim {

Simulation::Simulation(SimulationConfig config)
    : config_(config),
      medium_(scheduler_, config.medium, config.seed),
      rng_(config.seed) {}

Device& Simulation::add_device(DeviceInfo info, const MacAddress& mac,
                               RadioConfig radio_config,
                               mac::MacConfig mac_overrides) {
  mac_overrides.address = mac;
  mac_overrides.band = radio_config.band;
  devices_.push_back(std::make_unique<Device>(
      medium_, scheduler_, std::move(info), mac_overrides, radio_config,
      rng_.engine()()));
  return *devices_.back();
}

Device& Simulation::add_ap(const std::string& name, const MacAddress& mac,
                           Position position, mac::ApConfig config) {
  RadioConfig radio;
  radio.band = config.band;
  radio.channel = config.channel;
  radio.position = position;
  radio.power = PowerProfile::mains_powered();
  Device& device = add_device(
      DeviceInfo{.name = name, .kind = DeviceKind::kAccessPoint}, mac, radio);
  device.make_ap(std::move(config));
  return device;
}

Device& Simulation::add_client(const std::string& name, const MacAddress& mac,
                               Position position, mac::ClientConfig config) {
  RadioConfig radio;
  radio.band = config.band;
  radio.channel = 6;  // scanning is single-channel in this simulator
  radio.position = position;
  radio.power = config.power_save ? PowerProfile::esp8266()
                                  : PowerProfile::mains_powered();
  mac::MacConfig overrides;
  overrides.adaptive_rate = config.adaptive_rate;
  overrides.arf = config.arf;
  Device& device = add_device(
      DeviceInfo{.name = name, .kind = DeviceKind::kClient}, mac, radio,
      overrides);
  device.make_client(std::move(config));
  return device;
}

bool Simulation::establish(Device& client, Duration timeout) {
  if (client.client() == nullptr) return false;
  const TimePoint deadline = scheduler_.now() + timeout;
  while (scheduler_.now() < deadline) {
    if (client.client()->established()) return true;
    run_for(milliseconds(10));
  }
  return client.client()->established();
}

TraceRecorder& Simulation::trace() {
  if (!trace_) {
    trace_ = std::make_unique<TraceRecorder>();
    trace_->attach(medium_);
    trace_->set_name_resolver([this](const Radio& radio) -> std::string {
      for (const auto& d : devices_) {
        if (&d->radio() == &radio) return d->info().name;
      }
      return "?";
    });
  }
  return *trace_;
}

}  // namespace politewifi::sim
