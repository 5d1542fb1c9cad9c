#include "frames/frame_template.h"

#include "common/check.h"
#include "common/crc32.h"
#include "frames/serializer.h"
#include "obs/metrics.h"

namespace politewifi::frames {

namespace {

/// Template match: everything that lands on air must be equal except the
/// two fields the cache knows how to patch (sequence control and the
/// retry bit). Absent fields (by fc-implied layout) are ignored — they
/// never reach the octets.
bool matches_except_seq_retry(const Frame& a, const Frame& b) {
  const FrameControl& x = a.fc;
  const FrameControl& y = b.fc;
  if (x.protocol_version != y.protocol_version || x.type != y.type ||
      x.subtype != y.subtype || x.to_ds != y.to_ds || x.from_ds != y.from_ds ||
      x.more_fragments != y.more_fragments ||
      x.power_management != y.power_management || x.more_data != y.more_data ||
      x.protected_frame != y.protected_frame || x.order != y.order) {
    return false;
  }
  if (a.duration_id != b.duration_id || a.addr1 != b.addr1) return false;
  if (a.has_addr2() && a.addr2 != b.addr2) return false;
  if (a.has_addr3() && a.addr3 != b.addr3) return false;
  if (a.has_addr4() && a.addr4 != b.addr4) return false;
  if (a.has_qos_control() && a.qos_control != b.qos_control) return false;
  return a.body == b.body;
}

void patch_u16le(Bytes& raw, std::size_t offset, std::uint16_t v) {
  raw[offset] = static_cast<std::uint8_t>(v);
  raw[offset + 1] = static_cast<std::uint8_t>(v >> 8);
}

}  // namespace

FrameTemplateCache::Entry& FrameTemplateCache::slot_for(const Frame& frame) {
  // FNV-1a over the fields that distinguish steady-state templates: the
  // receiver, the transmitter and the frame shape.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const std::uint8_t b : frame.addr1.octets()) mix(b);
  if (frame.has_addr2()) {
    for (const std::uint8_t b : frame.addr2.octets()) mix(b);
  }
  mix(static_cast<std::uint64_t>(frame.fc.type));
  mix(frame.fc.subtype);
  mix(frame.body.size());
  return entries_[h & (kEntries - 1)];
}

void FrameTemplateCache::render_full(const Frame& frame, Entry& e,
                                     PpduPool& pool) {
  e.used = true;
  // Field-wise proto update: assign() keeps the body's capacity, so a
  // stream whose body changes per frame (beacon timestamps) still renders
  // without steady-state allocations.
  e.proto.fc = frame.fc;
  e.proto.duration_id = frame.duration_id;
  e.proto.addr1 = frame.addr1;
  e.proto.addr2 = frame.addr2;
  e.proto.addr3 = frame.addr3;
  e.proto.addr4 = frame.addr4;
  e.proto.seq = frame.seq;
  e.proto.qos_control = frame.qos_control;
  e.proto.body.assign(frame.body.begin(), frame.body.end());

  PpduRef fresh = pool.acquire();
  serialize_into(frame, fresh.mutable_octets());
  e.rendered = std::move(fresh);
  e.seq_offset =
      frame.has_sequence_control() ? kSequenceControlOffset : std::size_t{0};
  const std::size_t prefix =
      e.seq_offset != 0 ? e.seq_offset : e.rendered.size() - 4;
  e.prefix_crc = crc32_update(crc32_init(), e.rendered.bytes().first(prefix));
}

PpduRef FrameTemplateCache::render(const Frame& frame, PpduPool& pool) {
  Entry& e = slot_for(frame);
  if (!e.used || !matches_except_seq_retry(e.proto, frame)) {
    ++stats_.misses;
    PW_COUNT(kFramesTemplateMisses);
    render_full(frame, e, pool);
    return e.rendered;
  }

  ++stats_.hits;
  PW_COUNT(kFramesTemplateHits);
  const bool retry_changed = e.proto.fc.retry != frame.fc.retry;
  const bool seq_changed =
      e.seq_offset != 0 &&
      (e.proto.seq.sequence != frame.seq.sequence ||
       e.proto.seq.fragment != frame.seq.fragment);
  if (!retry_changed && !seq_changed) {
    return e.rendered;  // exact repeat: hand out another reference
  }

  if (e.rendered.unique()) {
    ++stats_.in_place_patches;
  } else {
    // Receivers still hold the previous frame's octets — shared buffers
    // are immutable, so the patch lands in a fresh pooled buffer.
    ++stats_.copied_patches;
    PpduRef fresh = pool.acquire();
    fresh.mutable_octets().assign(e.rendered.octets().begin(),
                                  e.rendered.octets().end());
    stats_.bytes_copied += fresh.size();
    e.rendered = std::move(fresh);
  }

  Bytes& raw = e.rendered.mutable_octets();
  const std::size_t prefix = e.seq_offset != 0 ? e.seq_offset : raw.size() - 4;
  if (retry_changed) {
    patch_u16le(raw, 0, frame.fc.pack());
    e.proto.fc.retry = frame.fc.retry;
    // The frame-control bytes sit in the CRC prefix: re-memoize it.
    e.prefix_crc = crc32_update(
        crc32_init(), std::span<const std::uint8_t>(raw).first(prefix));
  }
  if (seq_changed) {
    patch_u16le(raw, e.seq_offset, frame.seq.pack());
    e.proto.seq = frame.seq;
  }
  // FCS: resume from the memoized prefix state and run only the suffix
  // (sequence control onward) through the slicing-by-8 tables.
  const std::uint32_t crc = crc32_final(crc32_update(
      e.prefix_crc, std::span<const std::uint8_t>(raw).subspan(
                        prefix, raw.size() - 4 - prefix)));
  raw[raw.size() - 4] = static_cast<std::uint8_t>(crc);
  raw[raw.size() - 3] = static_cast<std::uint8_t>(crc >> 8);
  raw[raw.size() - 2] = static_cast<std::uint8_t>(crc >> 16);
  raw[raw.size() - 1] = static_cast<std::uint8_t>(crc >> 24);

#if PW_AUDIT_ENABLED
  {
    const contract::AuditScope audit;
    PW_CHECK(raw == serialize(frame),
             "patched template diverges from a fresh serialization");
  }
#endif
  return e.rendered;
}

}  // namespace politewifi::frames
