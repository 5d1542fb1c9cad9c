#include "core/scanner.h"

#include <algorithm>

namespace politewifi::core {

DeviceScanner::DeviceScanner(MonitorHub& hub, const mac::MacEnvironment& env,
                             std::vector<MacAddress> ignore)
    : env_(env), ignore_(std::move(ignore)) {
  hub.add_tap([this](const frames::Frame& f, const phy::RxVector& rx) {
    on_frame(f, rx);
  });
}

void DeviceScanner::on_frame(const frames::Frame& frame,
                             const phy::RxVector& rx) {
  // Only transmitter addresses identify devices; ACK/CTS have none.
  if (!frame.has_addr2()) return;
  const MacAddress& ta = frame.addr2;
  if (ta.is_group() || ta.is_zero()) return;
  if (std::find(ignore_.begin(), ignore_.end(), ta) != ignore_.end()) return;

  // Classify from the frame type the device originated.
  bool is_ap = false;
  bool classifiable = false;
  if (frame.fc.is_beacon() ||
      frame.fc.is_subtype(frames::ManagementSubtype::kProbeResponse)) {
    is_ap = true;
    classifiable = true;
  } else if (frame.fc.is_data() && frame.fc.from_ds && !frame.fc.to_ds) {
    is_ap = true;
    classifiable = true;
  } else if (frame.fc.is_subtype(frames::ManagementSubtype::kProbeRequest)) {
    classifiable = true;  // client
  } else if (frame.fc.is_data() && frame.fc.to_ds && !frame.fc.from_ds) {
    classifiable = true;  // client
  } else if (frame.fc.is_management() || frame.fc.is_data()) {
    classifiable = true;  // default to client for other originated frames
  } else {
    return;  // control frames don't establish device class
  }
  (void)classifiable;

  auto [it, inserted] = devices_.try_emplace(ta);
  DiscoveredDevice& dev = it->second;
  if (inserted) {
    dev.mac = ta;
    dev.first_seen = env_.now();
    dev.vendor = scenario::OuiDatabase::instance().vendor_of(ta);
    dev.is_ap = is_ap;
  } else if (is_ap) {
    // AP evidence dominates (an AP also sends client-shaped frames).
    dev.is_ap = true;
  }
  dev.last_seen = env_.now();
  dev.last_rssi_dbm = rx.rssi_dbm;
  ++dev.frames_seen;

  if (inserted && on_discovery_) on_discovery_(dev);
}

std::size_t DeviceScanner::count_aps() const {
  std::size_t n = 0;
  // pw-analyze: allow(unordered-iteration): commutative reduction (a
  // sum) over the device map; no ordering escapes.
  for (const auto& [mac, d] : devices_) n += d.is_ap ? 1 : 0;
  return n;
}

std::size_t DeviceScanner::count_clients() const {
  return devices_.size() - count_aps();
}

}  // namespace politewifi::core
