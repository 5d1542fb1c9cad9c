// Channel State Information model.
//
// CSI is the per-subcarrier complex channel response an 802.11 receiver
// estimates from the preamble of every frame — including ACKs. The paper's
// attacks measure the CSI of ACKs elicited from the victim; what makes the
// measurements informative is that human motion near the victim modulates
// the multipath geometry, and the per-subcarrier response
//
//   H(f_k) = sum_p  a_p * exp(-j 2*pi*(f_c + df_k)*tau_p + j*phi_p)
//
// moves with every path delay tau_p. Static furniture paths give a stable
// baseline; a hand reaching for the tablet adds a moving scatterer path
// whose changing delay sweeps the phasor sum — the Figure 5 fluctuations.
#pragma once

#include <complex>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "phy/channel.h"

namespace politewifi::phy {

/// One propagation path between transmitter and receiver.
struct PropagationPath {
  double delay_ns = 0.0;    // absolute propagation delay
  double amplitude = 1.0;   // linear field amplitude (relative to LOS = 1)
  double phase_rad = 0.0;   // extra phase from reflection

  friend bool operator==(const PropagationPath&,
                         const PropagationPath&) = default;
};

using PathSet = std::vector<PropagationPath>;

/// A single CSI estimate: one complex gain per populated subcarrier.
struct CsiSnapshot {
  TimePoint time{};
  std::vector<std::complex<double>> h;  // size kNumSubcarriers

  double amplitude(int subcarrier) const { return std::abs(h.at(subcarrier)); }
  double phase(int subcarrier) const { return std::arg(h.at(subcarrier)); }
};

/// One harvested CSI observation: a snapshot plus the RSSI it arrived
/// with. This is the unit the sensing pipelines consume (resampling,
/// subcarrier selection, spectrograms) — a PHY-layer observation, so it
/// lives here; `core::CsiCollector` produces vectors of them.
struct CsiSample {
  TimePoint time{};
  CsiSnapshot csi;
  double rssi_dbm = -100.0;
};

/// Builds the static path set for a link of length `distance_m`:
/// a line-of-sight path plus `n_reflections` environment reflections with
/// excess delays of 5–80 ns and amplitudes 0.1–0.5 of LOS. Deterministic
/// given `rng`'s state, so a scene's baseline CSI is reproducible.
PathSet make_static_paths(double distance_m, int n_reflections, Rng& rng);

/// Evaluates the CSI for static + dynamic paths at carrier `carrier_hz`,
/// adding circular Gaussian estimation noise of standard deviation
/// `noise_std` per subcarrier (models preamble SNR).
CsiSnapshot evaluate_csi(double carrier_hz, const PathSet& static_paths,
                         const PathSet& dynamic_paths, double noise_std,
                         Rng& rng, TimePoint time);

}  // namespace politewifi::phy
