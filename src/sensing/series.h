// Uniformly-sampled time series and resampling from CSI observations.
//
// ACK-elicited CSI arrives slightly irregularly (DCF jitter, losses);
// every downstream algorithm wants a uniform grid. Resampling is
// zero-order-hold at a configurable rate.
#pragma once

#include <cstddef>
#include <vector>

#include "phy/csi.h"

namespace politewifi::sensing {

struct TimeSeries {
  double t0_s = 0.0;  // time of the first sample
  double dt_s = 0.0;  // sample spacing
  std::vector<double> v;

  std::size_t size() const { return v.size(); }
  double time_of(std::size_t i) const { return t0_s + dt_s * double(i); }
  double duration_s() const { return dt_s * double(v.size()); }
  bool empty() const { return v.empty(); }
};

/// Resamples one subcarrier's CSI amplitude onto a uniform grid at
/// `rate_hz` (zero-order hold; gaps are bridged by the previous value).
TimeSeries resample_amplitude(const std::vector<phy::CsiSample>& samples,
                              int subcarrier, double rate_hz);

/// The subcarrier whose amplitude varies the most over the capture — the
/// standard sensing trick: multipath geometry makes some subcarriers sit
/// at insensitive points of the phasor sum, so pick the most responsive
/// one. Returns 0 when samples are empty.
int select_best_subcarrier(const std::vector<phy::CsiSample>& samples);

/// Basic statistics used all over the pipeline.
double mean(const std::vector<double>& v);
double variance(const std::vector<double>& v);
double median(std::vector<double> v);  // by-value: it sorts
double median_absolute_deviation(const std::vector<double>& v);

}  // namespace politewifi::sensing
