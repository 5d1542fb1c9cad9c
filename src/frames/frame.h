// The generic 802.11 MPDU.
//
// One Frame type covers management, control and data MPDUs; the Frame
// Control field determines which header fields are present on air, and the
// serializer honours that layout exactly (ACK = 14 octets, RTS = 20,
// data/management header = 24 [+2 QoS], everything + 4-octet FCS).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/byte_buffer.h"
#include "common/mac_address.h"
#include "frames/frame_control.h"

namespace politewifi::frames {

using politewifi::Bytes;
using politewifi::MacAddress;

/// Sequence Control field helpers: 12-bit sequence number + 4-bit fragment.
struct SequenceControl {
  std::uint16_t sequence = 0;  // 0..4095
  std::uint8_t fragment = 0;   // 0..15

  std::uint16_t pack() const {
    return static_cast<std::uint16_t>((sequence & 0x0FFF) << 4) |
           (fragment & 0x0F);
  }
  static SequenceControl unpack(std::uint16_t raw) {
    return {.sequence = static_cast<std::uint16_t>(raw >> 4),
            .fragment = static_cast<std::uint8_t>(raw & 0x0F)};
  }

  friend constexpr bool operator==(const SequenceControl&,
                                   const SequenceControl&) = default;
};

/// A MAC Protocol Data Unit.
///
/// Field presence (mirrors the standard):
///  - addr1 (receiver address) is always present;
///  - addr2 (transmitter) is absent only in ACK and CTS frames;
///  - addr3 and sequence control are present in data/management frames;
///  - addr4 only when both ToDS and FromDS are set (WDS; modeled but rare);
///  - qos_control only in QoS data subtypes.
struct Frame {
  FrameControl fc;
  std::uint16_t duration_id = 0;  // Duration/ID field, microseconds (NAV)
  MacAddress addr1;               // receiver address (RA)
  MacAddress addr2;               // transmitter address (TA), if present
  MacAddress addr3;               // BSSID / DA / SA depending on DS bits
  MacAddress addr4;               // WDS only
  SequenceControl seq;
  std::uint16_t qos_control = 0;
  Bytes body;  // frame body (management payload / MSDU / CCMP blob)

  // --- Field presence ------------------------------------------------------

  bool has_addr2() const {
    return !(fc.is_ack() || fc.is_cts());
  }
  bool has_addr3() const { return fc.is_management() || fc.is_data(); }
  bool has_addr4() const { return fc.is_data() && fc.to_ds && fc.from_ds; }
  bool has_sequence_control() const { return has_addr3(); }
  bool has_qos_control() const { return fc.is_qos_data(); }

  /// MAC header length in octets (without FCS or body).
  std::size_t header_size() const;

  /// Full on-air MPDU size in octets, including the 4-octet FCS.
  std::size_t size_bytes() const { return header_size() + body.size() + 4; }

  // --- Convenience accessors ----------------------------------------------

  const MacAddress& receiver() const { return addr1; }
  const MacAddress& transmitter() const { return addr2; }

  /// One-line rendering modeled on Wireshark's packet list, e.g.
  /// "Null function (No data), SN=12, Flags=...C".
  std::string summary() const;

  friend bool operator==(const Frame&, const Frame&) = default;
};

// --- Factory helpers for control frames (used by the low-MAC) --------------

/// ACK: 14 octets on air. `ra` is copied from addr2 of the frame being
/// acknowledged — which is how the victim ends up ACKing the attacker's
/// spoofed aa:bb:bb:bb:bb:bb address.
Frame make_ack(const MacAddress& ra);

/// CTS: 14 octets. `duration_us` continues the NAV set by the eliciting RTS.
Frame make_cts(const MacAddress& ra, std::uint16_t duration_us);

/// RTS: 20 octets. Duration covers CTS + data + ACK + 3*SIFS.
Frame make_rts(const MacAddress& ra, const MacAddress& ta,
               std::uint16_t duration_us);

/// Null-function data frame (no payload) — the paper's fake frame.
/// ToDS is set as a station-to-AP frame would have it; the victim does not
/// check any of this before ACKing.
Frame make_null_function(const MacAddress& ra, const MacAddress& ta,
                         std::uint16_t sequence);

}  // namespace politewifi::frames
