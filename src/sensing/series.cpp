#include "sensing/series.h"

#include <algorithm>
#include <cmath>

namespace politewifi::sensing {

TimeSeries resample_amplitude(const std::vector<phy::CsiSample>& samples,
                              int subcarrier, double rate_hz) {
  TimeSeries out;
  if (samples.empty() || rate_hz <= 0.0) return out;
  out.dt_s = 1.0 / rate_hz;
  out.t0_s = to_seconds(samples.front().time.time_since_epoch());
  const double t_end = to_seconds(samples.back().time.time_since_epoch());
  const std::size_t n =
      static_cast<std::size_t>((t_end - out.t0_s) * rate_hz) + 1;
  out.v.reserve(n);

  std::size_t src = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = out.t0_s + out.dt_s * double(i);
    while (src + 1 < samples.size() &&
           to_seconds(samples[src + 1].time.time_since_epoch()) <= t) {
      ++src;
    }
    out.v.push_back(samples[src].csi.amplitude(subcarrier));
  }
  return out;
}

int select_best_subcarrier(const std::vector<phy::CsiSample>& samples) {
  if (samples.empty()) return 0;
  const int n = int(samples.front().csi.h.size());
  int best = 0;
  double best_var = -1.0;
  std::vector<double> amps;
  amps.reserve(samples.size());
  for (int k = 0; k < n; ++k) {
    amps.clear();
    for (const auto& s : samples) amps.push_back(s.csi.amplitude(k));
    const double var = variance(amps);
    if (var > best_var) {
      best_var = var;
      best = k;
    }
  }
  return best;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / double(v.size());
}

double variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (const double x : v) s += (x - m) * (x - m);
  return s / double(v.size() - 1);
}


double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  std::nth_element(v.begin(), v.begin() + mid - 1, v.end());
  return 0.5 * (hi + v[mid - 1]);
}

double median_absolute_deviation(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const double med = median(v);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (const double x : v) dev.push_back(std::abs(x - med));
  return median(std::move(dev));
}

}  // namespace politewifi::sensing
