// HMAC-SHA1 (RFC 2104) and the key-derivation functions built on it:
// PBKDF2 (RFC 2898) and the IEEE 802.11i PRF.
//
// WPA2-PSK:
//   PMK = PBKDF2-HMAC-SHA1(passphrase, ssid, 4096 iterations, 32 octets)
//   PTK = PRF-384(PMK, "Pairwise key expansion",
//                 min(AA,SA) || max(AA,SA) || min(ANonce,SNonce) || max(...))
// The CCMP temporal key is octets 32..47 of the PTK.
//
// All three key the MAC once (RFC 2104 §4's precomputation): key⊕ipad
// and key⊕opad are each folded into a SHA-1 chaining state by one
// compression, and every MAC under that key resumes from those two
// states instead of hashing the pads again. A MAC over a 20-octet
// message — each PBKDF2 iteration after U1 — is then exactly two
// compressions on one pre-padded 16-word block (words 0-4 the message,
// word 5 the 0x80 marker, word 15 the bit length 672), with no byte
// round-trip, allocation or `Sha1` object.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "crypto/sha1.h"

namespace politewifi::crypto {

/// HMAC-SHA1 over `data` with `key` (any length).
Sha1::Digest hmac_sha1(std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> data);

/// PBKDF2-HMAC-SHA1. `dk_len` octets of derived key.
std::vector<std::uint8_t> pbkdf2_sha1(std::string_view password,
                                      std::span<const std::uint8_t> salt,
                                      unsigned iterations, std::size_t dk_len);

/// IEEE 802.11i PRF (802.11-2016 §12.7.1.2): iterated
/// HMAC-SHA1(K, A || 0x00 || B || counter) truncated to `bits`/8 octets.
std::vector<std::uint8_t> ieee80211_prf(std::span<const std::uint8_t> key,
                                        std::string_view label,
                                        std::span<const std::uint8_t> context,
                                        std::size_t bits);

}  // namespace politewifi::crypto
