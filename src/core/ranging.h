// Time-of-flight ranging through Polite WiFi ACKs.
//
// The ACK a victim returns is scheduled a *fixed, standard-mandated* time
// (SIFS) after the eliciting frame ends. Everything else in the
// round-trip timeline is known to the attacker:
//
//   RTT = airtime(fake) + d/c + SIFS + airtime(ACK) + d/c
//
// so the only unknowns are the two propagation legs — i.e. the distance.
// This is the observation behind the Wi-Peep line of follow-up work
// ("non-cooperative localization of WiFi devices"), built here directly
// on the injector/sniffer toolkit. Per-measurement error comes from the
// victim's SIFS turnaround jitter (100-300 ns on real silicon, ~15-45 m
// of apparent distance), so a ranger averages many elicited ACKs.
#pragma once

#include <optional>

#include "core/injector.h"
#include "core/monitor.h"
#include "sim/network.h"

namespace politewifi::core {

struct RangeEstimate {
  double distance_m = 0.0;     // best estimate (fastest-decile by default)
  double mean_m = 0.0;         // plain mean (biased long by jitter)
  double stddev_m = 0.0;       // spread of single measurements
  std::size_t measurements = 0;
  std::size_t lost = 0;        // injections with no usable ACK
};

struct RangerConfig {
  InjectorConfig injector{};
  /// Gap between ranging injections (well above RTT, keeps attribution
  /// trivial).
  Duration probe_interval = milliseconds(2);
  /// Discard RTTs that disagree wildly with the rest (collisions, late
  /// third-party ACKs).
  double outlier_sigma = 3.0;
  /// SIFS turnaround jitter only ever *delays* the ACK, so the shortest
  /// observed RTTs are the truthful ones. When set, the distance is
  /// estimated from the fastest decile instead of the mean (the Wi-Peep
  /// trick); the mean stays available in RangeEstimate::mean_m.
  bool use_minimum_filter = true;
};

class RttRanger {
 public:
  /// `attacker` needs no special capability beyond timestamping its own
  /// TX and the ACK arrivals (every monitor-mode chip can).
  RttRanger(sim::Simulation& sim, sim::Device& attacker,
            RangerConfig config = RangerConfig{});

  /// Ranges `target` with `n` fake-frame probes. Runs the simulation.
  RangeEstimate range(const MacAddress& target, int n = 50);

  /// One raw distance measurement from one injection (nullopt on loss).
  std::optional<double> measure_once(const MacAddress& target);

 private:
  sim::Simulation& sim_;
  sim::Device& attacker_;
  RangerConfig config_;
  MonitorHub hub_;
  FakeFrameInjector injector_;
  // Set by the monitor tap for the probe in flight.
  std::optional<TimePoint> ack_rx_end_;
};

}  // namespace politewifi::core
