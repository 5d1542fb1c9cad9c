#include "frames/information_elements.h"

#include <algorithm>

namespace politewifi::frames {

const InformationElement* ElementList::find(ElementId id) const {
  const auto raw = static_cast<std::uint8_t>(id);
  for (const auto& e : elements_) {
    if (e.id == raw) return &e;
  }
  return nullptr;
}

void ElementList::set_ssid(const std::string& ssid) {
  Bytes v(ssid.begin(), ssid.end());
  add(ElementId::kSsid, std::move(v));
}

std::optional<std::string> ElementList::ssid() const {
  const auto* e = find(ElementId::kSsid);
  if (!e) return std::nullopt;
  return std::string(e->value.begin(), e->value.end());
}

void ElementList::set_supported_rates(const std::vector<std::uint8_t>& rates) {
  add(ElementId::kSupportedRates, Bytes(rates.begin(), rates.end()));
}

void ElementList::set_channel(std::uint8_t channel) {
  add(ElementId::kDsParameterSet, Bytes{channel});
}

void ElementList::set_tim(const Tim& tim) {
  // Partial virtual bitmap: we encode AIDs 1..2007 in full-octet granularity
  // starting at offset 0 for simplicity (bitmap control = 0).
  std::uint16_t max_aid = 0;
  for (auto aid : tim.buffered_aids) max_aid = std::max(max_aid, aid);
  Bytes bitmap((max_aid / 8) + 1, 0);
  for (auto aid : tim.buffered_aids) bitmap[aid / 8] |= 1u << (aid % 8);

  Bytes v;
  v.push_back(tim.dtim_count);
  v.push_back(tim.dtim_period);
  v.push_back(0);  // bitmap control
  v.insert(v.end(), bitmap.begin(), bitmap.end());
  add(ElementId::kTim, std::move(v));
}

std::optional<ElementList::Tim> ElementList::tim() const {
  const auto* e = find(ElementId::kTim);
  if (!e || e->value.size() < 4) return std::nullopt;
  Tim t;
  t.dtim_count = e->value[0];
  t.dtim_period = e->value[1];
  // e->value[2] is bitmap control (always 0 here).
  for (std::size_t i = 3; i < e->value.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      if (e->value[i] & (1u << bit)) {
        t.buffered_aids.push_back(
            static_cast<std::uint16_t>((i - 3) * 8 + bit));
      }
    }
  }
  return t;
}

void ElementList::set_rsn_wpa2_psk() {
  // RSNE: version 1, group cipher CCMP, 1 pairwise cipher CCMP,
  // 1 AKM suite PSK, RSN capabilities 0.
  static constexpr std::uint8_t kRsne[] = {
      0x01, 0x00,                    // version
      0x00, 0x0f, 0xac, 0x04,        // group cipher: CCMP-128
      0x01, 0x00,                    // pairwise count
      0x00, 0x0f, 0xac, 0x04,        // pairwise: CCMP-128
      0x01, 0x00,                    // AKM count
      0x00, 0x0f, 0xac, 0x02,        // AKM: PSK
      0x00, 0x00,                    // capabilities
  };
  add(ElementId::kRsn, Bytes(std::begin(kRsne), std::end(kRsne)));
}

void ElementList::serialize(ByteWriter& w) const {
  for (const auto& e : elements_) {
    w.u8(e.id);
    w.u8(static_cast<std::uint8_t>(e.value.size()));
    w.bytes(e.value);
  }
}

ElementList ElementList::deserialize(ByteReader& r) {
  ElementList list;
  while (r.remaining() >= 2) {
    const std::uint8_t id = r.u8();
    const std::uint8_t len = r.u8();
    auto value = r.bytes(len);  // throws BufferUnderflow if truncated
    list.add(id, Bytes(value.begin(), value.end()));
  }
  return list;
}

}  // namespace politewifi::frames
