// 802.11 interframe spacing and contention timing.
//
// These constants carry the paper's central argument (§2.2): an ACK is due
// exactly one SIFS after the eliciting frame ends — 10 us at 2.4 GHz,
// 16 us at 5 GHz — which is an order of magnitude less than the 200–700 us
// a WPA2 decode takes. The low-MAC therefore *must* commit to the ACK on
// the basis of FCS + addr1 alone.
#pragma once

#include "common/clock.h"
#include "phy/channel.h"
#include "phy/rates.h"

namespace politewifi::phy {

/// Short Interframe Space.
constexpr Duration sifs(Band band) {
  return band == Band::k2_4GHz ? microseconds(10) : microseconds(16);
}

/// Slot time (long slots in 2.4 GHz for DSSS compatibility).
constexpr Duration slot_time(Band band) {
  return band == Band::k2_4GHz ? microseconds(20) : microseconds(9);
}

/// DIFS = SIFS + 2 * slot.
constexpr Duration difs(Band band) { return sifs(band) + 2 * slot_time(band); }

/// PHY RX-start detection delay: how long after a transmission begins a
/// receiver knows a PPDU is arriving (preamble detect).
constexpr Duration rx_start_delay() { return microseconds(20); }

/// ACK timeout. The standard (§10.3.2.9) arms SIFS + slot + PHY-RX-START
/// after the PPDU ends and *holds* if an RXSTART indication arrives — the
/// receiving MAC then waits for the frame to finish. Our MAC only learns
/// of a frame when its PPDU completes, so the timeout is modeled as the
/// standard's window plus the airtime of a worst-case (lowest basic rate)
/// ACK: behaviourally identical, without a separate RXSTART event.
inline Duration ack_timeout(Band band) {
  return sifs(band) + slot_time(band) + rx_start_delay() +
         ppdu_airtime(kOfdm6, 14);
}

/// Contention window bounds (802.11 DCF).
constexpr int kCwMin = 15;
constexpr int kCwMax = 1023;

/// Default retry limit before a frame is abandoned.
constexpr int kRetryLimit = 7;

}  // namespace politewifi::phy
