// Monitor-mode fan-out.
//
// A Station exposes a single sniffer hook; the attacker's toolchain wants
// several consumers at once (device scanner, ACK verifier, CSI collector
// — the paper's three "threads"). MonitorHub installs itself as the hook
// and fans every frame out to registered taps.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mac/station.h"

namespace politewifi::core {

class MonitorHub {
 public:
  using Tap = std::function<void(const frames::Frame&, const phy::RxVector&)>;

  explicit MonitorHub(mac::Station& station) {
    station.set_sniffer(
        [this](const frames::Frame& f, const phy::RxVector& rx) {
          for (const auto& [id, tap] : taps_) tap(f, rx);
        });
  }

  std::uint64_t add_tap(Tap tap) {
    const std::uint64_t id = next_id_++;
    taps_.emplace_back(id, std::move(tap));
    return id;
  }

  void remove_tap(std::uint64_t id) {
    std::erase_if(taps_, [id](const auto& e) { return e.first == id; });
  }

 private:
  std::vector<std::pair<std::uint64_t, Tap>> taps_;
  std::uint64_t next_id_ = 1;
};

}  // namespace politewifi::core
