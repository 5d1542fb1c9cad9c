#include "frames/serializer.h"

#include "common/check.h"
#include "common/crc32.h"
#include "obs/metrics.h"

namespace politewifi::frames {

namespace {

/// The shortest MPDU on air: an ACK/CTS header (10 octets) plus the FCS.
constexpr std::size_t kMinMpduOctets = 10 + 4;

#if PW_AUDIT_ENABLED
/// Round-trip audit, re-entrancy guarded (the audit itself serializes).
/// Every serialized MPDU must parse back FCS-clean and re-encode to the
/// same octets: the codec pair is a bijection on well-formed frames, and
/// any drift here silently rewrites what goes on the air.
thread_local bool in_serialize_audit = false;

void audit_round_trip(const Frame& frame, const Bytes& raw) {
  if (in_serialize_audit) return;
  in_serialize_audit = true;
  PW_CHECK_EQ(raw.size(), frame.size_bytes());
  const DeserializeResult parsed = audit_deserialize(raw);
  PW_CHECK(parsed.fcs_ok, "freshly serialized frame fails its own FCS");
  PW_CHECK(parsed.frame.has_value(),
           "freshly serialized frame is structurally unparseable");
  const Bytes again = serialize(*parsed.frame);
  PW_CHECK(again == raw,
           "serialize(deserialize(x)) != x: codec round-trip drift "
           "(%zu vs %zu octets)",
           again.size(), raw.size());
  in_serialize_audit = false;
}
#endif

void write_mac(ByteWriter& w, const MacAddress& m) { w.bytes(m.octets()); }

MacAddress read_mac(ByteReader& r) {
  auto b = r.bytes(MacAddress::kSize);
  std::array<std::uint8_t, MacAddress::kSize> octets;
  std::copy(b.begin(), b.end(), octets.begin());
  return MacAddress{octets};
}

/// deserialize_into's parse, uncounted. Returns false, parsing nothing,
/// for an octet string shorter than the shortest MPDU.
bool parse_into(std::span<const std::uint8_t> raw, DeserializeResult& out) {
  out.fcs_ok = fcs_valid(raw);
  if (raw.size() < kMinMpduOctets) {
    out.frame.reset();
    return false;
  }
  // Parse into the frame `out` already holds: every field is reset to
  // its default first (absent fields must read as a fresh Frame's), but
  // the body keeps its capacity.
  Frame& f = out.frame ? *out.frame : out.frame.emplace();
  Bytes body = std::move(f.body);
  f = Frame{};
  try {
    ByteReader r(raw.first(raw.size() - 4));
    f.fc = FrameControl::unpack(r.u16le());
    f.duration_id = r.u16le();
    f.addr1 = read_mac(r);
    if (f.has_addr2()) f.addr2 = read_mac(r);
    if (f.has_addr3()) f.addr3 = read_mac(r);
    if (f.has_sequence_control()) f.seq = SequenceControl::unpack(r.u16le());
    if (f.has_addr4()) f.addr4 = read_mac(r);
    if (f.has_qos_control()) f.qos_control = r.u16le();
    auto rest = r.rest();
    body.assign(rest.begin(), rest.end());
    f.body = std::move(body);
  } catch (const BufferUnderflow&) {
    // Truncated header: structurally undecodable.
    out.frame.reset();
  }
  return true;
}

}  // namespace

void serialize_into(const Frame& frame, Bytes& out) {
  ByteWriter w(std::move(out));
  w.u16le(frame.fc.pack());
  w.u16le(frame.duration_id);
  write_mac(w, frame.addr1);
  if (frame.has_addr2()) write_mac(w, frame.addr2);
  if (frame.has_addr3()) write_mac(w, frame.addr3);
  if (frame.has_sequence_control()) w.u16le(frame.seq.pack());
  if (frame.has_addr4()) write_mac(w, frame.addr4);
  if (frame.has_qos_control()) w.u16le(frame.qos_control);
  w.bytes(frame.body);
  w.u32le(crc32(w.view()));
  out = w.take();
#if PW_AUDIT_ENABLED
  audit_round_trip(frame, out);
#endif
}

Bytes serialize(const Frame& frame) {
  Bytes raw;
  raw.reserve(frame.size_bytes());
  serialize_into(frame, raw);
  return raw;
}

bool fcs_valid(std::span<const std::uint8_t> raw) {
  if (raw.size() < kMinMpduOctets) return false;
  // FCS check over everything but the trailing 4 octets.
  ByteReader fcs_reader(raw.subspan(raw.size() - 4));
  return crc32(raw.first(raw.size() - 4)) == fcs_reader.u32le();
}

DeserializeResult deserialize(std::span<const std::uint8_t> raw) {
  DeserializeResult result;
  deserialize_into(raw, result);
  return result;
}

void deserialize_into(std::span<const std::uint8_t> raw,
                      DeserializeResult& out) {
  if (parse_into(raw, out)) PW_COUNT(kFramesDecodes);
}

DeserializeResult audit_deserialize(std::span<const std::uint8_t> raw) {
  DeserializeResult result;
  parse_into(raw, result);
  return result;
}

void corrupt(Bytes& raw, unsigned nflips, std::uint64_t seed) {
  // splitmix64 — tiny, deterministic, independent of <random>.
  auto next = [&seed]() {
    seed += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = seed;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  if (raw.empty()) return;
  for (unsigned i = 0; i < nflips; ++i) {
    const std::uint64_t r = next();
    raw[r % raw.size()] ^= static_cast<std::uint8_t>(1u << (r >> 32 & 7));
  }
}

}  // namespace politewifi::frames
