#include "phy/csi.h"

#include <cmath>

#include "common/units.h"

namespace politewifi::phy {

PathSet make_static_paths(double distance_m, int n_reflections, Rng& rng) {
  PathSet paths;
  paths.reserve(static_cast<std::size_t>(n_reflections) + 1);

  const double los_delay_ns = distance_m / kSpeedOfLight * 1e9;
  paths.push_back({.delay_ns = los_delay_ns, .amplitude = 1.0, .phase_rad = 0.0});

  for (int i = 0; i < n_reflections; ++i) {
    paths.push_back({
        .delay_ns = los_delay_ns + rng.uniform(5.0, 80.0),
        .amplitude = rng.uniform(0.1, 0.5),
        .phase_rad = rng.uniform(0.0, 2.0 * M_PI),
    });
  }
  return paths;
}

CsiSnapshot evaluate_csi(double carrier_hz, const PathSet& static_paths,
                         const PathSet& dynamic_paths, double noise_std,
                         Rng& rng, TimePoint time) {
  CsiSnapshot snap;
  snap.time = time;
  snap.h.resize(kNumSubcarriers);

  auto accumulate = [&](const PathSet& paths) {
    for (const auto& p : paths) {
      const double tau_s = p.delay_ns * 1e-9;
      for (int k = 0; k < kNumSubcarriers; ++k) {
        const double f = carrier_hz + subcarrier_offset_hz(k);
        const double phase = -2.0 * M_PI * f * tau_s + p.phase_rad;
        snap.h[k] += std::polar(p.amplitude, phase);
      }
    }
  };
  accumulate(static_paths);
  accumulate(dynamic_paths);

  if (noise_std > 0.0) {
    for (auto& v : snap.h) {
      v += std::complex<double>(rng.gaussian(0.0, noise_std),
                                rng.gaussian(0.0, noise_std));
    }
  }
  return snap;
}

}  // namespace politewifi::phy
