// Data-frame helpers: plain/QoS data and the CCMP header wrapper.
//
// Inside a WPA2 BSS the MSDU is wrapped as
//   [CCMP header (8)] [encrypted MSDU] [MIC (8)]
// and the Protected bit is set in Frame Control. The crypto itself lives
// in pw_crypto; here we only define the on-air layout of the CCMP header
// so frames serialize byte-exactly.
#pragma once

#include <cstdint>
#include <optional>

#include "common/mac_address.h"
#include "frames/frame.h"

namespace politewifi::frames {

/// CCMP header (IEEE 802.11-2016 §12.5.3.2): 48-bit packet number split
/// around the key-ID octet. ExtIV is always set for CCMP.
struct CcmpHeader {
  static constexpr std::size_t kSize = 8;
  static constexpr std::size_t kMicSize = 8;

  std::uint64_t packet_number = 0;  // 48-bit PN, replay counter
  std::uint8_t key_id = 0;          // 0..3

  void serialize(ByteWriter& w) const;
  static std::optional<CcmpHeader> deserialize(ByteReader& r);

  friend bool operator==(const CcmpHeader&, const CcmpHeader&) = default;
};

/// A data frame from `sa` to `da` via the AP (ToDS), carrying `msdu`.
/// The body is the raw MSDU; call pw_crypto's protect() to encrypt in
/// place for WPA2 links.
Frame make_data_to_ds(const MacAddress& bssid, const MacAddress& sa,
                      const MacAddress& da, Bytes msdu,  // pw-lint: allow(by-value-bytes)
                      std::uint16_t sequence);

/// A data frame delivered by the AP (FromDS) to station `da`.
Frame make_data_from_ds(const MacAddress& bssid, const MacAddress& sa,
                        const MacAddress& da, Bytes msdu,  // pw-lint: allow(by-value-bytes)
                        std::uint16_t sequence);

/// PS-Poll control frame: a dozing station asks the AP for buffered
/// traffic. The AID is carried in the Duration/ID field with the two top
/// bits set (§9.2.4.2).
Frame make_ps_poll(const MacAddress& bssid, const MacAddress& ta,
                   std::uint16_t aid);

}  // namespace politewifi::frames
