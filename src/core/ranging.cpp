#include "core/ranging.h"

#include <algorithm>
#include <cmath>

#include "phy/timing.h"

namespace politewifi::core {

RttRanger::RttRanger(sim::Simulation& sim, sim::Device& attacker,
                     RangerConfig config)
    : sim_(sim),
      attacker_(attacker),
      config_(config),
      hub_(attacker.station()),
      injector_(attacker, config.injector) {
  hub_.add_tap([this](const frames::Frame& f, const phy::RxVector&) {
    if (!f.fc.is_ack()) return;
    if (f.addr1 != injector_.config().spoofed_source) return;
    // The tap runs when the PPDU finished arriving: this IS the RX-end
    // timestamp a real chip would record.
    ack_rx_end_ = attacker_.radio().now();
  });
}

std::optional<double> RttRanger::measure_once(const MacAddress& target) {
  const phy::Band band = attacker_.radio().config().band;
  const phy::PhyRate rate = injector_.config().rate;
  const phy::PhyRate ack_rate = phy::control_response_rate(rate);

  // Known timeline components.
  const std::size_t fake_octets =
      injector_.config().use_rts ? 20 : 28;  // RTS or null-function MPDU
  const Duration fake_airtime = phy::ppdu_airtime(rate, fake_octets);
  const Duration ack_airtime = phy::ppdu_airtime(ack_rate, 14);
  const Duration known =
      fake_airtime + phy::sifs(band) + ack_airtime;

  ack_rx_end_.reset();
  const TimePoint injected_at = sim_.now();
  injector_.inject_one(target);
  sim_.run_for(config_.probe_interval);

  if (!ack_rx_end_) return std::nullopt;
  const Duration rtt = *ack_rx_end_ - injected_at;
  const Duration two_way = rtt - known;
  const double d =
      to_seconds(two_way) * kSpeedOfLight / 2.0;
  if (d < -5.0 || d > 10000.0) return std::nullopt;  // garbage
  return std::max(d, 0.0);
}

RangeEstimate RttRanger::range(const MacAddress& target, int n) {
  std::vector<double> samples;
  RangeEstimate est;
  for (int i = 0; i < n; ++i) {
    if (const auto d = measure_once(target)) {
      samples.push_back(*d);
    } else {
      ++est.lost;
    }
  }
  if (samples.empty()) return est;

  // Outlier rejection around the median.
  std::vector<double> sorted = samples;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double med = sorted[sorted.size() / 2];
  double var = 0.0;
  for (const double d : samples) var += (d - med) * (d - med);
  const double sigma = std::sqrt(var / double(samples.size()));

  double sum = 0.0, sumsq = 0.0;
  std::size_t kept = 0;
  for (const double d : samples) {
    if (sigma > 0.0 && std::abs(d - med) > config_.outlier_sigma * sigma) {
      continue;
    }
    sum += d;
    sumsq += d * d;
    ++kept;
  }
  if (kept == 0) return est;
  est.measurements = kept;
  est.mean_m = sum / double(kept);
  est.stddev_m =
      std::sqrt(std::max(0.0, sumsq / double(kept) - est.mean_m * est.mean_m));

  if (config_.use_minimum_filter) {
    // Turnaround jitter is one-sided (an ACK can be late, never early),
    // so the fastest decile carries the unbiased distance.
    std::sort(sorted.begin(), sorted.end());
    const std::size_t decile =
        std::max<std::size_t>(1, sorted.size() / 10);
    double fast = 0.0;
    for (std::size_t i = 0; i < decile; ++i) fast += sorted[i];
    est.distance_m = fast / double(decile);
  } else {
    est.distance_m = est.mean_m;
  }
  return est;
}

}  // namespace politewifi::core
