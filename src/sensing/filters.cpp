#include "sensing/filters.h"

#include <algorithm>
#include <cmath>

#include "sensing/series.h"

namespace politewifi::sensing {

namespace {

/// Window bounds [lo, hi) for a centered window of width w at index i.
std::pair<std::size_t, std::size_t> window_bounds(std::size_t i,
                                                  std::size_t n, int w) {
  const int half = w / 2;
  const std::size_t lo = i >= std::size_t(half) ? i - half : 0;
  const std::size_t hi = std::min(n, i + std::size_t(half) + 1);
  return {lo, hi};
}

}  // namespace

std::vector<double> moving_average(const std::vector<double>& x, int w) {
  std::vector<double> out(x.size());
  if (x.empty() || w <= 1) return x;
  // Prefix sums for O(n).
  std::vector<double> prefix(x.size() + 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) prefix[i + 1] = prefix[i] + x[i];
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto [lo, hi] = window_bounds(i, x.size(), w);
    out[i] = (prefix[hi] - prefix[lo]) / double(hi - lo);
  }
  return out;
}

std::vector<double> hampel_filter(const std::vector<double>& x, int w,
                                  double n_sigmas) {
  if (x.empty() || w <= 1) return x;
  constexpr double kMadToSigma = 1.4826;
  std::vector<double> out = x;
  std::vector<double> window;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto [lo, hi] = window_bounds(i, x.size(), w);
    window.assign(x.begin() + lo, x.begin() + hi);
    const double med = median(window);
    const double mad = median_absolute_deviation(window);
    const double threshold = n_sigmas * kMadToSigma * mad;
    if (mad > 0.0 && std::abs(x[i] - med) > threshold) out[i] = med;
  }
  return out;
}

ButterworthLowPass::ButterworthLowPass(double cutoff_hz, double fs_hz) {
  // Standard 2nd-order Butterworth via bilinear transform with
  // prewarping; Q = 1/sqrt(2).
  const double k = std::tan(M_PI * cutoff_hz / fs_hz);
  const double q = 1.0 / std::sqrt(2.0);
  const double norm = 1.0 / (1.0 + k / q + k * k);
  b0_ = k * k * norm;
  b1_ = 2.0 * b0_;
  b2_ = b0_;
  a1_ = 2.0 * (k * k - 1.0) * norm;
  a2_ = (1.0 - k / q + k * k) * norm;
}

double ButterworthLowPass::step(double x) {
  const double y = b0_ * x + b1_ * x1_ + b2_ * x2_ - a1_ * y1_ - a2_ * y2_;
  x2_ = x1_;
  x1_ = x;
  y2_ = y1_;
  y1_ = y;
  return y;
}

std::vector<double> ButterworthLowPass::apply(const std::vector<double>& x) {
  std::vector<double> out;
  out.reserve(x.size());
  // Prime the state with the first sample to suppress the startup edge.
  if (!x.empty()) {
    x1_ = x2_ = x.front();
    y1_ = y2_ = x.front();
  }
  for (const double v : x) out.push_back(step(v));
  return out;
}

std::vector<double> butterworth_filtfilt(const std::vector<double>& x,
                                         double cutoff_hz, double fs_hz) {
  ButterworthLowPass forward(cutoff_hz, fs_hz);
  std::vector<double> fwd = forward.apply(x);
  std::reverse(fwd.begin(), fwd.end());
  ButterworthLowPass backward(cutoff_hz, fs_hz);
  std::vector<double> bwd = backward.apply(fwd);
  std::reverse(bwd.begin(), bwd.end());
  return bwd;
}

}  // namespace politewifi::sensing
