// Feature extraction over amplitude series.
#pragma once

#include <vector>

#include "sensing/series.h"

namespace politewifi::sensing {

/// Sliding-window sample variance (window `w`, same length as input;
/// edge windows shrink).
std::vector<double> moving_variance(const std::vector<double>& x, int w);

/// Sliding-window standard deviation.
std::vector<double> moving_stddev(const std::vector<double>& x, int w);

/// Goertzel single-bin DFT power at `freq_hz` for a series sampled at
/// `fs_hz`. The breathing estimator scans this across candidate rates.
double goertzel_power(const std::vector<double>& x, double freq_hz,
                      double fs_hz);

/// Simple peak picking: indices of local maxima above `threshold` with at
/// least `min_separation` samples between accepted peaks.
std::vector<std::size_t> find_peaks(const std::vector<double>& x,
                                    double threshold,
                                    std::size_t min_separation);

}  // namespace politewifi::sensing
