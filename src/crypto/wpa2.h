// WPA2-PSK key hierarchy and per-link session state.
//
// The simulator's BSSes are "private networks secured by protocols such
// as WPA2" exactly as in the paper's Figure 1: the AP and its clients
// derive a real PMK from the passphrase, run a 4-way-handshake-equivalent
// nonce exchange, and CCMP-protect their data frames. The attacker has
// none of these keys — and never needs them.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/mac_address.h"
#include "crypto/ccmp.h"
#include "crypto/hmac.h"

namespace politewifi::crypto {

using Pmk = std::array<std::uint8_t, 32>;
using Nonce = std::array<std::uint8_t, 32>;

/// Pairwise Transient Key split per 802.11-2016 §12.7.1.3 (CCMP AKM):
/// KCK (16) | KEK (16) | TK (16).
struct Ptk {
  std::array<std::uint8_t, 16> kck{};  // EAPOL MIC key
  std::array<std::uint8_t, 16> kek{};  // key-wrap key
  Aes128::Key tk{};                    // CCMP temporal key
};

/// PMK = PBKDF2-HMAC-SHA1(passphrase, ssid, 4096, 32).
Pmk derive_pmk(std::string_view passphrase, std::string_view ssid);

/// PTK = PRF-384(PMK, "Pairwise key expansion", min/max(AA,SPA) || min/max
/// (ANonce,SNonce)).
Ptk derive_ptk(const Pmk& pmk, const MacAddress& ap, const MacAddress& sta,
               const Nonce& anonce, const Nonce& snonce);

/// Cheap PTK for population-scale scenarios: all key material flows from
/// the 802.11i PRF over the two MAC addresses, three HMACs in all,
/// instead of a PMK from 4096 PBKDF2 rounds (~3 ms on a 4-core x86-64
/// host, RelWithDebInfo; two per AP–client pair, since each end derives
/// its own). Cryptographic strength is irrelevant there — only the CCMP
/// plumbing (and its cost) matters. Both link ends derive identically.
Ptk derive_fast_ptk(const MacAddress& ap, const MacAddress& sta);

/// One side of an established WPA2 link: protects outgoing MPDUs and
/// validates/unprotects incoming ones with replay detection.
class Wpa2Session {
 public:
  explicit Wpa2Session(const Ptk& ptk) : ptk_(ptk) {}

  const Ptk& ptk() const { return ptk_; }

  /// CCMP-protects `frame` in place, assigning the next packet number.
  void protect(frames::Frame& frame);

  /// Validates MIC and replay counter, decrypts in place.
  /// Returns false for fake, tampered or replayed frames.
  bool unprotect(frames::Frame& frame);

  std::uint64_t next_packet_number() const { return tx_pn_ + 1; }
  std::uint64_t last_rx_packet_number() const { return rx_pn_; }

 private:
  Ptk ptk_;
  std::uint64_t tx_pn_ = 0;  // last transmitted PN
  std::uint64_t rx_pn_ = 0;  // highest accepted PN (replay window = strict)
};

/// Models the time a real receiver needs to decrypt+verify one WPA2 frame.
///
/// §2.2 cites measurements of 200–700 µs per frame under WPA2 ([15, 17,
/// 22]); the spread tracks frame size and device class. We model
///   t = base + per_byte * mpdu_octets
/// with the constants chosen so a 100-octet frame on a mid-class device
/// costs ~250 µs and a 1500-octet frame on a slow device ~700 µs.
struct DecodeLatencyModel {
  double base_us = 180.0;
  double per_byte_us = 0.35;
  double device_class_scale = 1.0;  // 1.0 = mid; slow IoT ~1.5; fast ~0.7

  double decode_us(std::size_t mpdu_octets) const {
    return device_class_scale * (base_us + per_byte_us * double(mpdu_octets));
  }
};

}  // namespace politewifi::crypto
