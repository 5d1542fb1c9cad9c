// The §3 wardriving survey: a vehicle-mounted rig drives a city route,
// discovers every WiFi device it hears, sends each one fake 802.11
// frames, and verifies that they acknowledge.
//
// The paper implements this as three Scapy threads (discover / inject /
// verify); in the discrete-event world the same three stages run as
// event-driven components sharing one monitor-mode radio:
//   - DeviceScanner     <- passive sniffing (thread 1)
//   - injection pump    <- fake frames to the target list (thread 2)
//   - verification tap  <- ACKs to the spoofed address (thread 3)
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "common/json.h"
#include "core/injector.h"
#include "core/scanner.h"
#include "core/vendor_stats.h"
#include "scenario/city.h"
#include "sim/mobility.h"
#include "sim/network.h"

namespace politewifi::core {

struct WardriveConfig {
  double speed_mps = 11.0;  // ~40 km/h urban survey speed
  /// City devices farther than this from the vehicle are dormant.
  double activation_range_m = 240.0;
  Duration activation_tick = milliseconds(500);
  /// One injection per tick keeps ACK attribution unambiguous.
  Duration injection_tick = milliseconds(2);
  int max_attempts_per_target = 25;
  /// Only inject at targets heard recently and loudly enough to answer.
  double inject_min_rssi_dbm = -93.0;
  Duration inject_freshness = seconds(5);
  /// Loiter after the route ends to verify late discoveries.
  Duration final_loiter = seconds(15);
  /// Idle client chatter that makes clients discoverable.
  double client_traffic_pps = 1.2;
  Duration max_duration = minutes(75);
  InjectorConfig injector{};
  /// Injection runs at 1 Mb/s DSSS, like real long-range rigs: the
  /// ~10 dB spreading gain keeps the fake frame (and the DSSS ACK it
  /// elicits) decodable all the way down to the discovery threshold.
  phy::PhyRate inject_rate = phy::kDsss1;
  /// Channel-hopping rig: when non-empty, the survey radio cycles these
  /// channels with `hop_dwell` on each (needed for multi-channel cities).
  std::vector<int> hop_channels{};
  Duration hop_dwell = milliseconds(250);
};

struct WardriveReport {
  Duration elapsed{};
  double distance_m = 0.0;
  std::size_t population = 0;       // devices placed in the city
  std::size_t discovered = 0;
  std::size_t discovered_aps = 0;
  std::size_t discovered_clients = 0;
  std::size_t responded = 0;        // discovered devices that ACKed a fake
  std::size_t responded_aps = 0;
  std::size_t responded_clients = 0;
  std::size_t distinct_vendors = 0;
  std::uint64_t fake_frames_sent = 0;
  std::uint64_t acks_observed = 0;
  VendorTable client_table;
  VendorTable ap_table;

  double response_rate() const {
    return discovered == 0 ? 0.0 : double(responded) / double(discovered);
  }

  /// Canonical JSON view (runtime result sinks, goldens).
  common::Json to_json() const;
};

/// The survey's round-robin injection order over discovered targets.
/// Each pick() visits the live targets once each, in discovery order,
/// starting after the last one it injected at and wrapping round, and
/// returns the first eligible one. A target that responded or used up its
/// attempts is retired for good, and pick() drops it where it finds it (an
/// order-preserving erase), so the 500 Hz injection tick scans only live
/// targets instead of every device ever discovered. The injection
/// sequence is exactly that of rescanning the whole discovery list and
/// skipping retired entries — first round included, which starts at the
/// second-discovered target.
class TargetRotation {
 public:
  void add(const MacAddress& mac) { live_.push_back(Target{mac, 0}); }

  /// `retired(mac, attempts)` says a target is finished (once true, it
  /// must stay true); `eligible(mac)` says whether to inject at it now.
  /// Returns the target picked, its attempt already counted.
  template <typename Retired, typename Eligible>
  std::optional<MacAddress> pick(Retired&& retired, Eligible&& eligible) {
    std::size_t pos = next_;
    for (std::size_t left = live_.size(); left > 0; --left) {
      if (pos >= live_.size()) pos = 0;
      Target& target = live_[pos];
      if (retired(target.mac, target.attempts)) {
        // Its successor slides into `pos`, so the cyclic order of the
        // live targets is untouched; the cursor keeps its place.
        live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pos));
        if (pos < next_) --next_;
        continue;
      }
      ++pos;
      if (!eligible(target.mac)) continue;
      ++target.attempts;
      next_ = pos;
      return target.mac;
    }
    return std::nullopt;
  }

  /// Targets not yet retired (or not yet found retired by a pick).
  std::size_t live() const { return live_.size(); }

 private:
  struct Target {
    MacAddress mac;
    int attempts;
  };
  std::vector<Target> live_;
  /// The cursor: how many live targets precede the next one to visit,
  /// i.e. were discovered no later than the rescan's last injection. A
  /// pick visits positions next_ .. end, then 0 .. next_ - 1; when next_
  /// equals live_.size(), targets discovered since are visited before
  /// the wrap, as the rescan would. Starts at 1 because the rescan's
  /// cursor starts on the first-discovered target.
  std::size_t next_ = 1;
};

class WardriveCampaign {
 public:
  WardriveCampaign(sim::Simulation& sim, const scenario::CityPlan& plan,
                   WardriveConfig config = WardriveConfig{});

  /// Drives the route to completion (or max_duration) and reports.
  WardriveReport run();

  const DeviceScanner& scanner() const { return *scanner_; }
  const std::set<MacAddress>& responded() const { return responded_; }
  sim::Device& attacker() { return *attacker_; }

 private:
  struct CityNode {
    const scenario::CityDeviceSpec* spec = nullptr;
    sim::Device* device = nullptr;
    bool active = false;
    std::uint64_t traffic_generation = 0;
  };

  void activation_tick();
  void hop_tick();
  void activate(CityNode& node);
  void deactivate(CityNode& node);
  void schedule_client_traffic(CityNode& node, std::uint64_t generation);
  void injection_tick();
  void on_ack(const frames::Frame& frame);

  sim::Simulation& sim_;
  const scenario::CityPlan& plan_;
  WardriveConfig config_;

  sim::Device* attacker_ = nullptr;
  std::unique_ptr<MonitorHub> hub_;
  std::unique_ptr<DeviceScanner> scanner_;
  std::unique_ptr<FakeFrameInjector> injector_;
  std::unique_ptr<sim::WaypointMover> mover_;

  std::vector<CityNode> nodes_;
  TargetRotation targets_;  // discovered, pending verification
  std::set<MacAddress> responded_;
  // Attribution state for the verification tap.
  TimePoint last_injection_at_{};
  MacAddress last_injection_target_{};
  std::uint64_t acks_observed_ = 0;
  std::size_t hop_index_ = 0;
  bool finished_ = false;
};

}  // namespace politewifi::core
