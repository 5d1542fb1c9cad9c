// SNR -> frame error rate.
//
// A coarse but standard model: per-modulation BER curves (AWGN
// approximations) composed into an FER over the MPDU length. It is enough
// to make marginal links lose frames, trigger the real retransmission
// machinery, and let the wardriving survey see range effects.
#pragma once

#include <cstdint>
#include <span>

#include "phy/rates.h"

namespace politewifi::phy {

/// Frame error rate for `mpdu_octets` at `rate` and `snr_db`:
/// 1 - (1 - BER)^(8 * octets).
double frame_error_rate(PhyRate rate, double snr_db, std::size_t mpdu_octets);

/// Batched FER: `fer_out[i]` = frame_error_rate(rate, snr_db[i],
/// mpdu_octets), bit-for-bit. The per-rate curve constants are hoisted
/// out of the loop (they are pure functions of `rate`, evaluated with
/// the scalar path's exact expressions), so the loop body is the
/// branch-light erfc/pow chain the compiler can vectorize.
/// `fer_out.size()` must equal `snr_db.size()`.
void frame_error_rate_batch(PhyRate rate, std::span<const double> snr_db,
                            std::size_t mpdu_octets,
                            std::span<double> fer_out);

/// Receive sensitivity: below this SNR the preamble is undetectable and
/// the frame is not received at all (as opposed to received-with-errors).
constexpr double kPreambleDetectSnrDb = 1.0;

/// The FER bracket a frame-loss decision is settled from. For every rate
/// and length, frame_error_rate is non-increasing across each SNR cell
/// [s_lo, s_hi] = [floor(snr * kFerCellsPerDb), +1] / kFerCellsPerDb up
/// to kFerBracketSlack: fer(s_hi) - slack <= fer(s) <= fer(s_lo) + slack
/// for every s in the cell (ErrorModel.FerIsMonotoneWithinEveryCell
/// checks every cell from kPreambleDetectSnrDb to 70 dB). So a uniform u
/// below fer(s_hi) - slack is a loss and one at or above fer(s_lo) +
/// slack is not, whatever fer(s) is. Both cell ends are exact doubles.
constexpr double kFerCellsPerDb = 64.0;
constexpr double kFerBracketSlack = 0x1p-50;  // 8 ULPs of a double in [0.5, 1)

}  // namespace politewifi::phy
