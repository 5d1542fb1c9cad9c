// ACK generation policy — the paper's pivot point.
//
// kPoliteHardware is what every shipping 802.11 chip does: the low-MAC
// commits to an ACK the moment the FCS passes and addr1 matches, because
// the standard gives it only one SIFS (10/16 us) to respond and a WPA2
// decode takes 200-700 us. No software, blocklist, or deauth state can
// intervene (§2.1-2.2).
//
// kValidatingMac is the *hypothetical* fixed receiver the paper argues
// cannot exist: it fully decrypts and verifies the frame before deciding
// to ACK. Because the decode cannot finish inside SIFS, its ACKs are
// always late — the transmitter's ACK timeout fires first and legitimate
// traffic collapses into retry storms. LinkAblation in
// tests/paper_claims_test.cpp quantifies it.
#pragma once

#include <cstdint>

namespace politewifi::mac {

enum class AckPolicyMode : std::uint8_t {
  /// Standard-compliant: ACK any FCS-valid frame addressed to us, one
  /// SIFS after reception ends. This is the Polite WiFi behaviour.
  kPoliteHardware,

  /// Hypothetical: validate (decrypt + MIC-check) before ACKing. Fake
  /// frames are rejected — but every real frame's ACK is late.
  kValidatingMac,
};

}  // namespace politewifi::mac
