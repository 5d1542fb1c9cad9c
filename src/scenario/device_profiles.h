// Chipset/device profiles.
//
// Table 1 of the paper tests Polite WiFi across radios from five vendors
// plus the attacker's RTL8812AU and the ESP8266/ESP32 used in §4. The
// profiles parameterize everything the standard lets a chipset vary —
// band, power draw, ACK turnaround jitter, deauth policy — precisely to
// demonstrate that the ACK behaviour is invariant across all of them.
#pragma once

#include <string>
#include <vector>

#include "mac/ack_policy.h"
#include "phy/channel.h"
#include "sim/energy_model.h"

namespace politewifi::scenario {

struct ChipsetProfile {
  std::string device_name;   // "MSI GE62 laptop"
  std::string wifi_module;   // "Intel AC 3160"
  std::string standard;      // "11ac"
  std::string vendor;        // OUI vendor for generated MACs
  phy::Band band = phy::Band::k5GHz;
  bool is_access_point = false;
  /// AP software quirk shown in Figure 3.
  bool deauth_on_unknown = false;
  sim::PowerProfile power = sim::PowerProfile::mains_powered();
  /// ACK turnaround jitter (ns): real silicon is tight but not identical.
  double sifs_jitter_ns = 100.0;
};

/// The paper's Table 1 bench devices, in print order.
std::vector<ChipsetProfile> table1_devices();

/// The §4.2 victim: Espressif ESP8266 low-power IoT module.
ChipsetProfile esp8266();

/// §4.2's battery-life subjects.
struct CameraSpec {
  std::string name;
  double battery_mwh;
  std::string advertised_life;
};
CameraSpec logitech_circle2();  // 2400 mWh, "up to 3 months"
CameraSpec blink_xt2();         // 6000 mWh, "up to 2 years"

}  // namespace politewifi::scenario
