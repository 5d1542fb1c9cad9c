#include "frames/data.h"

namespace politewifi::frames {

void CcmpHeader::serialize(ByteWriter& w) const {
  // PN0 PN1 | rsvd | key-id/ExtIV | PN2 PN3 PN4 PN5
  w.u8(static_cast<std::uint8_t>(packet_number));
  w.u8(static_cast<std::uint8_t>(packet_number >> 8));
  w.u8(0);  // reserved
  w.u8(static_cast<std::uint8_t>(0x20 | ((key_id & 0x03) << 6)));  // ExtIV set
  w.u8(static_cast<std::uint8_t>(packet_number >> 16));
  w.u8(static_cast<std::uint8_t>(packet_number >> 24));
  w.u8(static_cast<std::uint8_t>(packet_number >> 32));
  w.u8(static_cast<std::uint8_t>(packet_number >> 40));
}

std::optional<CcmpHeader> CcmpHeader::deserialize(ByteReader& r) {
  if (r.remaining() < kSize) return std::nullopt;
  CcmpHeader h;
  const std::uint64_t pn0 = r.u8();
  const std::uint64_t pn1 = r.u8();
  r.u8();  // reserved
  const std::uint8_t keyid_octet = r.u8();
  if ((keyid_octet & 0x20) == 0) return std::nullopt;  // ExtIV must be set
  h.key_id = (keyid_octet >> 6) & 0x03;
  const std::uint64_t pn2 = r.u8();
  const std::uint64_t pn3 = r.u8();
  const std::uint64_t pn4 = r.u8();
  const std::uint64_t pn5 = r.u8();
  h.packet_number = pn0 | (pn1 << 8) | (pn2 << 16) | (pn3 << 24) |
                    (pn4 << 32) | (pn5 << 40);
  return h;
}

Frame make_data_to_ds(const MacAddress& bssid, const MacAddress& sa,
                      const MacAddress& da, Bytes msdu,  // pw-lint: allow(by-value-bytes)
                      std::uint16_t sequence) {
  Frame f;
  f.fc = FrameControl::data(DataSubtype::kData);
  f.fc.to_ds = true;
  f.addr1 = bssid;  // RA = AP
  f.addr2 = sa;     // TA = source STA
  f.addr3 = da;     // DA behind the DS
  f.seq.sequence = sequence;
  f.body = std::move(msdu);
  return f;
}

Frame make_data_from_ds(const MacAddress& bssid, const MacAddress& sa,
                        const MacAddress& da, Bytes msdu,  // pw-lint: allow(by-value-bytes)
                        std::uint16_t sequence) {
  Frame f;
  f.fc = FrameControl::data(DataSubtype::kData);
  f.fc.from_ds = true;
  f.addr1 = da;     // RA = destination STA
  f.addr2 = bssid;  // TA = AP
  f.addr3 = sa;     // original source
  f.seq.sequence = sequence;
  f.body = std::move(msdu);
  return f;
}

Frame make_ps_poll(const MacAddress& bssid, const MacAddress& ta,
                   std::uint16_t aid) {
  Frame f;
  f.fc = FrameControl::control(ControlSubtype::kPsPoll);
  f.duration_id = static_cast<std::uint16_t>(0xC000 | (aid & 0x3FFF));
  f.addr1 = bssid;
  f.addr2 = ta;
  return f;
}

}  // namespace politewifi::frames
