#include "frames/management.h"

namespace politewifi::frames {

namespace {

template <typename T>
std::optional<T> parse_guard(std::span<const std::uint8_t> body,
                             T (*parser)(ByteReader&)) {
  try {
    ByteReader r(body);
    return parser(r);
  } catch (const BufferUnderflow&) {
    return std::nullopt;
  }
}

}  // namespace

// --- Beacon ------------------------------------------------------------------

Bytes Beacon::to_body() const {
  ByteWriter w;
  w.u64le(timestamp_us);
  w.u16le(beacon_interval);
  w.u16le(capability.pack());
  elements.serialize(w);
  return w.take();
}

std::optional<Beacon> Beacon::from_body(std::span<const std::uint8_t> body) {
  return parse_guard<Beacon>(body, +[](ByteReader& r) {
    Beacon b;
    b.timestamp_us = r.u64le();
    b.beacon_interval = r.u16le();
    b.capability = CapabilityInfo::unpack(r.u16le());
    b.elements = ElementList::deserialize(r);
    return b;
  });
}

// --- Deauthentication ---------------------------------------------------------

Bytes Deauthentication::to_body() const {
  ByteWriter w;
  w.u16le(static_cast<std::uint16_t>(reason));
  return w.take();
}

// --- Authentication ------------------------------------------------------------

Bytes Authentication::to_body() const {
  ByteWriter w;
  w.u16le(algorithm);
  w.u16le(sequence);
  w.u16le(status);
  return w.take();
}

std::optional<Authentication> Authentication::from_body(
    std::span<const std::uint8_t> body) {
  return parse_guard<Authentication>(body, +[](ByteReader& r) {
    Authentication a;
    a.algorithm = r.u16le();
    a.sequence = r.u16le();
    a.status = r.u16le();
    return a;
  });
}

// --- Association ---------------------------------------------------------------

Bytes AssociationRequest::to_body() const {
  ByteWriter w;
  w.u16le(capability.pack());
  w.u16le(listen_interval);
  elements.serialize(w);
  return w.take();
}

std::optional<AssociationRequest> AssociationRequest::from_body(
    std::span<const std::uint8_t> body) {
  return parse_guard<AssociationRequest>(body, +[](ByteReader& r) {
    AssociationRequest a;
    a.capability = CapabilityInfo::unpack(r.u16le());
    a.listen_interval = r.u16le();
    a.elements = ElementList::deserialize(r);
    return a;
  });
}

Bytes AssociationResponse::to_body() const {
  ByteWriter w;
  w.u16le(capability.pack());
  w.u16le(status);
  w.u16le(aid);
  elements.serialize(w);
  return w.take();
}

std::optional<AssociationResponse> AssociationResponse::from_body(
    std::span<const std::uint8_t> body) {
  return parse_guard<AssociationResponse>(body, +[](ByteReader& r) {
    AssociationResponse a;
    a.capability = CapabilityInfo::unpack(r.u16le());
    a.status = r.u16le();
    a.aid = r.u16le();
    a.elements = ElementList::deserialize(r);
    return a;
  });
}

// --- Probe request ---------------------------------------------------------------

Bytes ProbeRequest::to_body() const {
  ByteWriter w;
  elements.serialize(w);
  return w.take();
}

std::optional<ProbeRequest> ProbeRequest::from_body(
    std::span<const std::uint8_t> body) {
  return parse_guard<ProbeRequest>(body, +[](ByteReader& r) {
    ProbeRequest p;
    p.elements = ElementList::deserialize(r);
    return p;
  });
}

// --- Frame factories ---------------------------------------------------------------

namespace {

Frame make_management(ManagementSubtype subtype, const MacAddress& ra,
                      const MacAddress& ta, const MacAddress& bssid,
                      Bytes body, std::uint16_t sequence) {  // pw-lint: allow(by-value-bytes)
  Frame f;
  f.fc = FrameControl::management(subtype);
  f.addr1 = ra;
  f.addr2 = ta;
  f.addr3 = bssid;
  f.seq.sequence = sequence;
  f.body = std::move(body);
  return f;
}

}  // namespace

Frame make_beacon(const MacAddress& bssid, const Beacon& body,
                  std::uint16_t sequence) {
  return make_management(ManagementSubtype::kBeacon, MacAddress::broadcast(),
                         bssid, bssid, body.to_body(), sequence);
}

Frame make_deauth(const MacAddress& ra, const MacAddress& ta,
                  const MacAddress& bssid, ReasonCode reason,
                  std::uint16_t sequence) {
  return make_management(ManagementSubtype::kDeauthentication, ra, ta, bssid,
                         Deauthentication{reason}.to_body(), sequence);
}

Frame make_probe_request(const MacAddress& ta, const ProbeRequest& body,
                         std::uint16_t sequence) {
  return make_management(ManagementSubtype::kProbeRequest,
                         MacAddress::broadcast(), ta, MacAddress::broadcast(),
                         body.to_body(), sequence);
}

Frame make_probe_response(const MacAddress& ra, const MacAddress& bssid,
                          const Beacon& body, std::uint16_t sequence) {
  return make_management(ManagementSubtype::kProbeResponse, ra, bssid, bssid,
                         body.to_body(), sequence);
}

Frame make_authentication(const MacAddress& ra, const MacAddress& ta,
                          const MacAddress& bssid, const Authentication& body,
                          std::uint16_t sequence) {
  return make_management(ManagementSubtype::kAuthentication, ra, ta, bssid,
                         body.to_body(), sequence);
}

Frame make_assoc_request(const MacAddress& ra, const MacAddress& ta,
                         const AssociationRequest& body,
                         std::uint16_t sequence) {
  return make_management(ManagementSubtype::kAssocRequest, ra, ta, ra,
                         body.to_body(), sequence);
}

Frame make_assoc_response(const MacAddress& ra, const MacAddress& ta,
                          const AssociationResponse& body,
                          std::uint16_t sequence) {
  return make_management(ManagementSubtype::kAssocResponse, ra, ta, ta,
                         body.to_body(), sequence);
}

}  // namespace politewifi::frames
