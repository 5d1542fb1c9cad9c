// Denoising filters for CSI amplitude streams.
//
// The standard WiFi-sensing preprocessing chain: Hampel to kill CSI
// outlier spikes, then a moving average or Butterworth low-pass to
// suppress estimation noise while keeping motion dynamics.
#pragma once

#include <vector>

namespace politewifi::sensing {

/// Centered moving average with window `w` (odd preferred; edges shrink).
std::vector<double> moving_average(const std::vector<double>& x, int w);

/// Hampel outlier rejection: a sample farther than `n_sigmas` scaled MADs
/// from the window median is replaced by that median.
std::vector<double> hampel_filter(const std::vector<double>& x, int w,
                                  double n_sigmas = 3.0);

/// 2nd-order Butterworth low-pass (bilinear transform), applied
/// forward-only. `cutoff_hz` must be < `fs_hz` / 2.
class ButterworthLowPass {
 public:
  ButterworthLowPass(double cutoff_hz, double fs_hz);

  double step(double x);

  std::vector<double> apply(const std::vector<double>& x);

  // Exposed for verification against reference designs.
  double b0() const { return b0_; }
  double b1() const { return b1_; }
  double b2() const { return b2_; }
  double a1() const { return a1_; }
  double a2() const { return a2_; }

 private:
  double b0_, b1_, b2_, a1_, a2_;
  double x1_ = 0.0, x2_ = 0.0, y1_ = 0.0, y2_ = 0.0;
};

/// Forward-backward (zero-phase) Butterworth application.
std::vector<double> butterworth_filtfilt(const std::vector<double>& x,
                                         double cutoff_hz, double fs_hz);

}  // namespace politewifi::sensing
