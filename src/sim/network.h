// Simulation facade: owns the scheduler, medium and devices, and offers
// the builders every experiment starts from.
#pragma once

#include <memory>
#include <vector>

#include "sim/device.h"
#include "sim/trace.h"

namespace politewifi::sim {

struct SimulationConfig {
  MediumConfig medium{};
  std::uint64_t seed = 42;
};

class Simulation {
 public:
  explicit Simulation(SimulationConfig config = {});

  Scheduler& scheduler() { return scheduler_; }
  Medium& medium() { return medium_; }
  Rng& rng() { return rng_; }
  TimePoint now() const { return scheduler_.now(); }
  /// Runs events for `d` of simulated time.
  void run_for(Duration d) { scheduler_.run_for(d); }

  /// Adds a device. The MAC address must be unique in this simulation.
  Device& add_device(DeviceInfo info, const MacAddress& mac,
                     RadioConfig radio_config, mac::MacConfig mac_overrides = {});

  /// Convenience: a WPA2 AP at `position` (starts beaconing).
  Device& add_ap(const std::string& name, const MacAddress& mac,
                 Position position, mac::ApConfig config = {});

  /// Convenience: a client configured to join `ap`'s SSID.
  Device& add_client(const std::string& name, const MacAddress& mac,
                     Position position, mac::ClientConfig config = {});

  /// Runs the simulation until `client`'s link to its AP is established
  /// (through the real over-the-air handshake). Returns false on timeout.
  bool establish(Device& client, Duration timeout = seconds(10));

  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

  /// Attaches and returns a trace recorder wired to this medium with a
  /// name resolver over this simulation's devices.
  TraceRecorder& trace();

 private:
  SimulationConfig config_;
  Scheduler scheduler_;
  Medium medium_;
  Rng rng_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::unique_ptr<TraceRecorder> trace_;
};

}  // namespace politewifi::sim
