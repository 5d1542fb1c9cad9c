#include "frames/frame.h"

#include <cstdio>

namespace politewifi::frames {

std::size_t Frame::header_size() const {
  // The serializer's field-presence rules, field by field, so a frame of
  // the reserved type (neither control, management nor data: FC,
  // Duration, RA, TA) is sized as it is encoded.
  std::size_t n = 2 + 2 + 6;  // FC, Duration, addr1
  if (has_addr2()) n += 6;
  if (has_addr3()) n += 6;
  if (has_sequence_control()) n += 2;
  if (has_addr4()) n += 6;
  if (has_qos_control()) n += 2;
  return n;
}


std::string Frame::summary() const {
  std::string s = fc.subtype_name();
  char buf[64];
  if (has_sequence_control()) {
    std::snprintf(buf, sizeof buf, ", SN=%u", seq.sequence);
    s += buf;
  }
  std::string flags;
  if (fc.to_ds) flags += 'T';
  if (fc.from_ds) flags += 'F';
  if (fc.retry) flags += 'R';
  if (fc.power_management) flags += 'P';
  if (fc.protected_frame) flags += 'C';  // "C" = cryptographically protected
  if (!flags.empty()) s += ", Flags=" + flags;
  return s;
}

Frame make_ack(const MacAddress& ra) {
  Frame f;
  f.fc = FrameControl::control(ControlSubtype::kAck);
  f.duration_id = 0;  // final frame of the exchange: NAV ends
  f.addr1 = ra;
  return f;
}

Frame make_cts(const MacAddress& ra, std::uint16_t duration_us) {
  Frame f;
  f.fc = FrameControl::control(ControlSubtype::kCts);
  f.duration_id = duration_us;
  f.addr1 = ra;
  return f;
}

Frame make_rts(const MacAddress& ra, const MacAddress& ta,
               std::uint16_t duration_us) {
  Frame f;
  f.fc = FrameControl::control(ControlSubtype::kRts);
  f.duration_id = duration_us;
  f.addr1 = ra;
  f.addr2 = ta;
  return f;
}

Frame make_null_function(const MacAddress& ra, const MacAddress& ta,
                         std::uint16_t sequence) {
  Frame f;
  f.fc = FrameControl::data(DataSubtype::kNull);
  f.fc.to_ds = true;  // cosmetic: mimics a STA->AP keep-alive
  f.duration_id = 44;  // SIFS + ACK airtime at 24 Mb/s, rounded up
  f.addr1 = ra;
  f.addr2 = ta;
  f.addr3 = ra;  // BSSID slot; victim never validates it
  f.seq.sequence = sequence;
  return f;
}

}  // namespace politewifi::frames
