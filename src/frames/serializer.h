// MPDU <-> octets codec with FCS.
//
// `serialize` appends the real CRC-32 FCS; `deserialize` verifies it and
// reports failure the way hardware does — by telling the caller the frame
// is not valid, so the MAC never sees it and (critically) never ACKs it.
// `fcs_valid` is that verification alone, for a receiver that drops a
// bad frame without parsing it.
#pragma once

#include <optional>

#include "common/byte_buffer.h"
#include "frames/frame.h"

namespace politewifi::frames {

/// Serializes `frame` to its exact on-air octet string, FCS included.
Bytes serialize(const Frame& frame);

/// Serializes into `out`, reusing its capacity (the previous contents are
/// discarded). The allocation-free path for pooled PPDU buffers; produces
/// exactly the octets serialize() would.
void serialize_into(const Frame& frame, Bytes& out);

/// Octet offset of the Sequence Control field for frames that carry one
/// (fc + duration + addr1..addr3). The frame-template cache patches the
/// two bytes at this offset in place.
inline constexpr std::size_t kSequenceControlOffset = 2 + 2 + 6 + 6 + 6;

/// Outcome of deserializing a received octet string.
struct DeserializeResult {
  std::optional<Frame> frame;  // nullopt if the frame could not be decoded
  bool fcs_ok = false;         // FCS verification result

  friend bool operator==(const DeserializeResult&,
                         const DeserializeResult&) = default;
};

/// Parses an on-air octet string. A frame with a bad FCS may still be
/// structurally parseable (frame is set, fcs_ok false) — sniffers display
/// such frames, but a receiving MAC must drop them without acknowledging.
DeserializeResult deserialize(std::span<const std::uint8_t> raw);

/// deserialize into `out`, reusing the storage of the frame `out` already
/// holds (its body's capacity), so a recycled result decodes without
/// allocating. Leaves `out` equal to deserialize(raw).
void deserialize_into(std::span<const std::uint8_t> raw,
                      DeserializeResult& out);

/// deserialize for an audit that re-parses octets the program already
/// decoded or just serialized: the same result, but not counted in
/// frames.decodes, so that counter reads the same in audit builds.
DeserializeResult audit_deserialize(std::span<const std::uint8_t> raw);

/// The FCS check alone: what deserialize reports as `fcs_ok`, without
/// parsing a field. False for anything shorter than the shortest MPDU.
bool fcs_valid(std::span<const std::uint8_t> raw);

/// Flips `nflips` random-ish bits in `raw` (deterministic given `seed`),
/// modelling channel corruption for failure-injection tests.
void corrupt(Bytes& raw, unsigned nflips, std::uint64_t seed);

}  // namespace politewifi::frames
