#include "phy/propagation.h"

#include <algorithm>
#include <cmath>

namespace politewifi::phy {

double LogDistancePathLoss::reference_loss_db() const {
  // Friis free-space loss at d0: 20 log10(4 pi d0 / lambda).
  const double lambda = wavelength(frequency_hz_);
  return 20.0 * std::log10(4.0 * M_PI * params_.reference_m / lambda);
}

double LogDistancePathLoss::loss_db(double d_m, Rng* rng) const {
  const double d = std::max(d_m, 0.1);
  double loss = reference_loss_db() +
                10.0 * params_.exponent * std::log10(d / params_.reference_m);
  if (rng != nullptr && params_.shadowing_sigma_db > 0.0) {
    loss += rng->gaussian(0.0, params_.shadowing_sigma_db);
  }
  return std::max(loss, 0.0);
}

}  // namespace politewifi::phy
