// A device: radio + MAC station + optional upper-MAC role + metadata.
#pragma once

#include <memory>
#include <string>

#include "mac/ap_role.h"
#include "mac/client_role.h"
#include "mac/station.h"
#include "sim/radio.h"

namespace politewifi::sim {

enum class DeviceKind : std::uint8_t {
  kAccessPoint,
  kClient,     // laptop/phone/tablet
  kIot,        // battery-operated sensor-class device
  kAttacker,   // injection dongle / ESP32 rig
  kSniffer,
};

struct DeviceInfo {
  std::string name;       // "victim-tablet"
  std::string vendor;     // OUI vendor, e.g. "Apple"
  std::string chipset;    // "Intel AC 3160"
  std::string standard;   // "11ac"
  DeviceKind kind = DeviceKind::kClient;
};

class Device {
 public:
  Device(Medium& medium, Scheduler& scheduler, DeviceInfo info,
         mac::MacConfig mac_config, RadioConfig radio_config,
         std::uint64_t seed);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceInfo& info() const { return info_; }
  const MacAddress& address() const { return station_.address(); }
  Radio& radio() { return radio_; }
  const Radio& radio() const { return radio_; }
  mac::Station& station() { return station_; }
  const mac::Station& station() const { return station_; }

  /// Attaches an AP role (also starts it). At most one role per device.
  mac::ApRole& make_ap(mac::ApConfig config);

  /// Attaches a client role (also starts it).
  mac::ClientRole& make_client(mac::ClientConfig config);

  mac::ApRole* ap() { return ap_.get(); }
  mac::ClientRole* client() { return client_.get(); }

 private:
  mac::RoleContext role_context();

  DeviceInfo info_;
  Radio radio_;
  mac::Station station_;
  Rng rng_;
  std::unique_ptr<mac::ApRole> ap_;
  std::unique_ptr<mac::ClientRole> client_;
};

}  // namespace politewifi::sim
