// Large-scale propagation: path loss, RSSI and SNR.
#pragma once

#include "common/rng.h"
#include "common/units.h"
#include "phy/channel.h"

namespace politewifi::phy {

/// Log-distance path-loss model with optional log-normal shadowing:
///   PL(d) = FSPL(d0) + 10 n log10(d / d0) + X_sigma
/// n ~= 2 free space, ~3 urban outdoor, ~3.5–4 through walls.
class LogDistancePathLoss {
 public:
  struct Params {
    double exponent = 3.0;       // n
    double reference_m = 1.0;    // d0
    double shadowing_sigma_db = 0.0;  // 0 = deterministic
  };

  LogDistancePathLoss(Params params, double frequency_hz)
      : params_(params), frequency_hz_(frequency_hz) {}

  /// Free-space path loss at the reference distance (Friis).
  double reference_loss_db() const;

  /// Path loss in dB at distance `d_m` (>= a 0.1 m floor to avoid the
  /// singularity). Shadowing, if enabled, is drawn from `rng`.
  double loss_db(double d_m, Rng* rng = nullptr) const;

  /// Received power given transmit power.
  double rx_power_dbm(double tx_dbm, double d_m, Rng* rng = nullptr) const {
    return tx_dbm - loss_db(d_m, rng);
  }

  const Params& params() const { return params_; }
  double frequency_hz() const { return frequency_hz_; }

 private:
  Params params_;
  double frequency_hz_;
};

}  // namespace politewifi::phy
