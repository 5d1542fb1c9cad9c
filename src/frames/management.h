// Typed management-frame payloads.
//
// Each struct models a management frame body (IEEE 802.11-2016 §9.3.3) and
// converts to/from the raw body bytes of a `Frame`. The AP and client MAC
// state machines speak these; the attacker never needs any of them — which
// is the point of the paper.
#pragma once

#include <cstdint>
#include <optional>

#include "common/mac_address.h"
#include "frames/frame.h"
#include "frames/information_elements.h"

namespace politewifi::frames {

/// Capability Information field bits we model.
struct CapabilityInfo {
  bool ess = true;       // set by infrastructure APs
  bool ibss = false;     // ad-hoc
  bool privacy = false;  // WEP/WPA/WPA2 required

  std::uint16_t pack() const {
    std::uint16_t v = 0;
    if (ess) v |= 1u << 0;
    if (ibss) v |= 1u << 1;
    if (privacy) v |= 1u << 4;
    return v;
  }
  static CapabilityInfo unpack(std::uint16_t raw) {
    return {.ess = (raw & 1u) != 0,
            .ibss = (raw & 2u) != 0,
            .privacy = (raw & 0x10u) != 0};
  }
  friend bool operator==(const CapabilityInfo&,
                         const CapabilityInfo&) = default;
};

/// Beacon / Probe Response body: timestamp, interval, capabilities, IEs.
struct Beacon {
  std::uint64_t timestamp_us = 0;    // TSF timer at transmission
  std::uint16_t beacon_interval = 100;  // in TUs (1 TU = 1024 us)
  CapabilityInfo capability;
  ElementList elements;

  Bytes to_body() const;
  static std::optional<Beacon> from_body(std::span<const std::uint8_t> body);

  friend bool operator==(const Beacon&, const Beacon&) = default;
};

/// 802.11 reason codes used in deauthentication (§9.4.1.7).
enum class ReasonCode : std::uint16_t {
  kUnspecified = 1,
  kPrevAuthNotValid = 2,       // "class 2 frame from nonauthenticated STA"
  kDeauthLeaving = 3,
  kInactivity = 4,
  kClass2FrameFromNonauthSta = 6,
  kClass3FrameFromNonassocSta = 7,
};

/// Deauthentication / Disassociation body: a bare reason code. Figure 3's
/// confused APs fire these at the attacker (reason 6/7) while still ACKing.
struct Deauthentication {
  ReasonCode reason = ReasonCode::kUnspecified;

  Bytes to_body() const;

  friend bool operator==(const Deauthentication&,
                         const Deauthentication&) = default;
};

/// Authentication body (open system, the pre-WPA2 handshake step).
struct Authentication {
  std::uint16_t algorithm = 0;  // 0 = open system
  std::uint16_t sequence = 1;   // 1 = request, 2 = response
  std::uint16_t status = 0;     // 0 = success

  Bytes to_body() const;
  static std::optional<Authentication> from_body(
      std::span<const std::uint8_t> body);

  friend bool operator==(const Authentication&,
                         const Authentication&) = default;
};

/// Association request body.
struct AssociationRequest {
  CapabilityInfo capability;
  std::uint16_t listen_interval = 10;  // beacons between PS wakeups
  ElementList elements;                // SSID, rates

  Bytes to_body() const;
  static std::optional<AssociationRequest> from_body(
      std::span<const std::uint8_t> body);

  friend bool operator==(const AssociationRequest&,
                         const AssociationRequest&) = default;
};

/// Association response body.
struct AssociationResponse {
  CapabilityInfo capability;
  std::uint16_t status = 0;  // 0 = success
  std::uint16_t aid = 0;     // association ID (1..2007), used in TIM
  ElementList elements;

  Bytes to_body() const;
  static std::optional<AssociationResponse> from_body(
      std::span<const std::uint8_t> body);

  friend bool operator==(const AssociationResponse&,
                         const AssociationResponse&) = default;
};

/// Probe request body: SSID (possibly wildcard/empty) + rates.
struct ProbeRequest {
  ElementList elements;

  Bytes to_body() const;
  static std::optional<ProbeRequest> from_body(
      std::span<const std::uint8_t> body);

  friend bool operator==(const ProbeRequest&, const ProbeRequest&) = default;
};

// --- Frame-level factories --------------------------------------------------

Frame make_beacon(const MacAddress& bssid, const Beacon& body,
                  std::uint16_t sequence);
Frame make_deauth(const MacAddress& ra, const MacAddress& ta,
                  const MacAddress& bssid, ReasonCode reason,
                  std::uint16_t sequence);
Frame make_probe_request(const MacAddress& ta, const ProbeRequest& body,
                         std::uint16_t sequence);
Frame make_probe_response(const MacAddress& ra, const MacAddress& bssid,
                          const Beacon& body, std::uint16_t sequence);
Frame make_authentication(const MacAddress& ra, const MacAddress& ta,
                          const MacAddress& bssid, const Authentication& body,
                          std::uint16_t sequence);
Frame make_assoc_request(const MacAddress& ra, const MacAddress& ta,
                         const AssociationRequest& body,
                         std::uint16_t sequence);
Frame make_assoc_response(const MacAddress& ra, const MacAddress& ta,
                          const AssociationResponse& body,
                          std::uint16_t sequence);

}  // namespace politewifi::frames
