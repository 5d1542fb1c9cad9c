// 802.11 Information Elements (tagged parameters).
//
// Management frame bodies carry a TLV list: Element ID (1 octet), Length
// (1 octet), value. We model the handful the simulator needs — SSID,
// Supported Rates, DS Parameter Set (channel), TIM (power save), RSN
// (signals WPA2) — plus pass-through for unknown IDs so sniffed beacons
// round-trip losslessly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/byte_buffer.h"

namespace politewifi::frames {

enum class ElementId : std::uint8_t {
  kSsid = 0,
  kSupportedRates = 1,
  kDsParameterSet = 3,
  kTim = 5,
  kRsn = 48,
  kVendorSpecific = 221,
};

/// One raw information element.
struct InformationElement {
  std::uint8_t id = 0;
  Bytes value;

  friend bool operator==(const InformationElement&,
                         const InformationElement&) = default;
};

/// An ordered IE list with typed accessors for the elements we understand.
class ElementList {
 public:
  ElementList() = default;

  void add(std::uint8_t id, Bytes value) {  // pw-lint: allow(by-value-bytes)
    elements_.push_back({id, std::move(value)});
  }
  void add(ElementId id, Bytes value) {  // pw-lint: allow(by-value-bytes)
    add(static_cast<std::uint8_t>(id), std::move(value));
  }

  const std::vector<InformationElement>& elements() const { return elements_; }

  /// First element with the given ID, if any.
  const InformationElement* find(ElementId id) const;

  // --- Typed helpers -------------------------------------------------------

  void set_ssid(const std::string& ssid);
  std::optional<std::string> ssid() const;

  /// Rates in units of 500 kb/s, high bit = basic rate.
  void set_supported_rates(const std::vector<std::uint8_t>& rates);

  void set_channel(std::uint8_t channel);

  /// Traffic Indication Map: DTIM count/period plus the bitmap of
  /// association IDs with buffered traffic. Drives power-save wakeups.
  struct Tim {
    std::uint8_t dtim_count = 0;
    std::uint8_t dtim_period = 1;
    std::vector<std::uint16_t> buffered_aids;  // AIDs with pending traffic
  };
  void set_tim(const Tim& tim);
  std::optional<Tim> tim() const;

  /// Minimal RSN element marking the BSS as WPA2-PSK/CCMP.
  void set_rsn_wpa2_psk();
  bool has_rsn() const { return find(ElementId::kRsn) != nullptr; }

  // --- Codec ---------------------------------------------------------------

  void serialize(ByteWriter& w) const;
  /// Parses elements until the reader is exhausted; throws BufferUnderflow
  /// on a length field that overruns the buffer.
  static ElementList deserialize(ByteReader& r);

  friend bool operator==(const ElementList&, const ElementList&) = default;

 private:
  std::vector<InformationElement> elements_;
};

}  // namespace politewifi::frames
