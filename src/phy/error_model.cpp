#include "phy/error_model.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace politewifi::phy {

namespace {

double qfunc(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

/// One rate's BER curve, reduced to the constants the per-SNR evaluation
/// needs. Everything here is a pure function of the rate, computed with
/// the exact expressions the historical scalar code used — hoisting it
/// out of a batch loop cannot change a single output bit.
struct BerCurve {
  enum class Kind : std::uint8_t { kDsss, kBpsk, kQpsk, kQam } kind;
  double gain = 0.0;  // kDsss: spreading gain 11 / mbps
  double coef = 0.0;  // kQam: (4/bits) * (1 - 1/sqrt(M))
  double m1 = 0.0;    // kQam: M - 1
};

BerCurve curve_for(PhyRate rate) {
  if (rate.modulation == Modulation::kDsss) {
    // DSSS enjoys ~10.4 dB of spreading gain at 1 Mb/s.
    return {BerCurve::Kind::kDsss, 11.0 / rate.mbps, 0.0, 0.0};
  }
  // OFDM: NDBPS / 48 data subcarriers / coding rate folded into a single
  // effective bits-per-subcarrier density.
  const double bits_per_subcarrier = rate.bits_per_symbol / 48.0;
  if (bits_per_subcarrier <= 1.0) {
    return {BerCurve::Kind::kBpsk, 0.0, 0.0, 0.0};
  }
  if (bits_per_subcarrier <= 2.0) {
    return {BerCurve::Kind::kQpsk, 0.0, 0.0, 0.0};
  }
  // Square M-QAM approximation.
  const double m = std::pow(2.0, bits_per_subcarrier);
  return {BerCurve::Kind::kQam,
          0.0,
          4.0 / bits_per_subcarrier * (1.0 - 1.0 / std::sqrt(m)),
          m - 1.0};
}

/// BPSK/QPSK/M-QAM BER approximations over AWGN, Eb/N0 derived from
/// SNR and the rate's bits/subcarrier-symbol density.
double ber_on_curve(const BerCurve& c, double snr_db) {
  const double snr = std::pow(10.0, snr_db / 10.0);
  double ber = 0.0;
  switch (c.kind) {
    case BerCurve::Kind::kDsss:
      return qfunc(std::sqrt(2.0 * snr * c.gain));
    case BerCurve::Kind::kBpsk:
      ber = qfunc(std::sqrt(2.0 * snr));
      break;
    case BerCurve::Kind::kQpsk:
      ber = qfunc(std::sqrt(snr));  // per-bit
      break;
    case BerCurve::Kind::kQam:
      ber = c.coef * qfunc(std::sqrt(3.0 * snr / c.m1));
      break;
  }
  // Convolutional coding gain: rough 4 dB equivalent expressed as a
  // power-law improvement of raw BER (OFDM only).
  ber = std::pow(std::clamp(ber, 1e-12, 0.5), 1.35);
  return std::clamp(ber, 0.0, 0.5);
}

double fer_on_curve(const BerCurve& c, double snr_db, double mpdu_bits) {
  const double ber = ber_on_curve(c, snr_db);
  return std::clamp(1.0 - std::pow(1.0 - ber, mpdu_bits), 0.0, 1.0);
}

}  // namespace

double frame_error_rate(PhyRate rate, double snr_db, std::size_t mpdu_octets) {
  const double fer =
      fer_on_curve(curve_for(rate), snr_db, 8.0 * double(mpdu_octets));
  // In a medium-driven run every call here is one end of a FER-memo
  // miss's bracket or an exact fallback, so fer_draws == 2 *
  // fer_cache_misses + fer_exact_fallbacks.
  PW_COUNT(kPhyFerDraws);
  PW_HIST(kPhyFerPpm, std::llround(fer * 1e6));
  return fer;
}

void frame_error_rate_batch(PhyRate rate, std::span<const double> snr_db,
                            std::size_t mpdu_octets,
                            std::span<double> fer_out) {
  const BerCurve c = curve_for(rate);
  const double mpdu_bits = 8.0 * double(mpdu_octets);
  const std::size_t n = snr_db.size();
  // The hot loop: per element only the erfc/pow chain, no rate
  // re-derivation, no instrumentation test. Each element equals the
  // scalar frame_error_rate output bit-for-bit (same curve constants,
  // same expressions).
  for (std::size_t i = 0; i < n; ++i) {
    fer_out[i] = fer_on_curve(c, snr_db[i], mpdu_bits);
  }
  PW_COUNT_N(kPhyFerDraws, n);
  for (std::size_t i = 0; i < n; ++i) {
    PW_HIST(kPhyFerPpm, std::llround(fer_out[i] * 1e6));
  }
}

}  // namespace politewifi::phy
