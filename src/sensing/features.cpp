#include "sensing/features.h"

#include <algorithm>
#include <cmath>

namespace politewifi::sensing {

std::vector<double> moving_variance(const std::vector<double>& x, int w) {
  std::vector<double> out(x.size(), 0.0);
  if (x.size() < 2 || w < 2) return out;
  // Prefix sums of x and x^2 give O(n) windowed variance.
  std::vector<double> s1(x.size() + 1, 0.0), s2(x.size() + 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    s1[i + 1] = s1[i] + x[i];
    s2[i + 1] = s2[i] + x[i] * x[i];
  }
  const int half = w / 2;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::size_t lo = i >= std::size_t(half) ? i - half : 0;
    const std::size_t hi = std::min(x.size(), i + std::size_t(half) + 1);
    const double n = double(hi - lo);
    if (n < 2) continue;
    const double sum = s1[hi] - s1[lo];
    const double sumsq = s2[hi] - s2[lo];
    const double var = (sumsq - sum * sum / n) / (n - 1);
    out[i] = std::max(var, 0.0);  // clamp negative rounding residue
  }
  return out;
}

std::vector<double> moving_stddev(const std::vector<double>& x, int w) {
  auto out = moving_variance(x, w);
  for (double& v : out) v = std::sqrt(v);
  return out;
}

double goertzel_power(const std::vector<double>& x, double freq_hz,
                      double fs_hz) {
  if (x.empty() || fs_hz <= 0.0) return 0.0;
  const double omega = 2.0 * M_PI * freq_hz / fs_hz;
  const double coeff = 2.0 * std::cos(omega);
  double s0 = 0.0, s1 = 0.0, s2 = 0.0;
  for (const double v : x) {
    s0 = v + coeff * s1 - s2;
    s2 = s1;
    s1 = s0;
  }
  const double power =
      s1 * s1 + s2 * s2 - coeff * s1 * s2;
  return power / double(x.size() * x.size());
}

std::vector<std::size_t> find_peaks(const std::vector<double>& x,
                                    double threshold,
                                    std::size_t min_separation) {
  std::vector<std::size_t> peaks;
  for (std::size_t i = 1; i + 1 < x.size(); ++i) {
    if (x[i] < threshold) continue;
    if (x[i] < x[i - 1] || x[i] < x[i + 1]) continue;
    if (!peaks.empty() && i - peaks.back() < min_separation) {
      // Keep the taller of the contenders.
      if (x[i] > x[peaks.back()]) peaks.back() = i;
      continue;
    }
    peaks.push_back(i);
  }
  return peaks;
}

}  // namespace politewifi::sensing
