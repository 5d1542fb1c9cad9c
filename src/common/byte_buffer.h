// Little-endian byte serialization used by the 802.11 frame codec.
//
// 802.11 multi-octet header fields are transmitted least-significant octet
// first (IEEE 802.11-2016 §9.2.2), so the writer/reader default to
// little-endian accessors; big-endian helpers exist for the few network
// payloads that need them.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace politewifi {

using Bytes = std::vector<std::uint8_t>;

/// Thrown by ByteReader when a read runs past the end of the buffer —
/// i.e. a truncated or malformed frame.
class BufferUnderflow : public std::runtime_error {
 public:
  explicit BufferUnderflow(const std::string& what)
      : std::runtime_error(what) {}
};

/// Appends integers and byte ranges to a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }
  /// Adopts an existing buffer, reusing its capacity (the pooled-PPDU
  /// serialization path); the previous contents are discarded.
  explicit ByteWriter(Bytes&& adopt) : buf_(std::move(adopt)) { buf_.clear(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16le(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32le(std::uint32_t v) {
    u16le(static_cast<std::uint16_t>(v));
    u16le(static_cast<std::uint16_t>(v >> 16));
  }

  void u64le(std::uint64_t v) {
    u32le(static_cast<std::uint32_t>(v));
    u32le(static_cast<std::uint32_t>(v >> 32));
  }

  void u16be(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void u32be(std::uint32_t v) {
    u16be(static_cast<std::uint16_t>(v >> 16));
    u16be(static_cast<std::uint16_t>(v));
  }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  std::size_t size() const { return buf_.size(); }

  /// Overwrites previously written bytes (e.g. to patch a length field).
  void patch_u16le(std::size_t offset, std::uint16_t v) {
    buf_.at(offset) = static_cast<std::uint8_t>(v);
    buf_.at(offset + 1) = static_cast<std::uint8_t>(v >> 8);
  }

  const Bytes& view() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Consumes integers and byte ranges from a fixed buffer; throws
/// BufferUnderflow on truncation.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint16_t u16le() {
    auto b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }

  std::uint32_t u32le() {
    auto b = take(4);
    return static_cast<std::uint32_t>(b[0]) |
           (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
  }

  std::uint64_t u64le() {
    const std::uint64_t lo = u32le();
    const std::uint64_t hi = u32le();
    return lo | (hi << 32);
  }

  std::uint16_t u16be() {
    auto b = take(2);
    return static_cast<std::uint16_t>((b[0] << 8) | b[1]);
  }

  std::span<const std::uint8_t> bytes(std::size_t n) { return take(n); }

  /// Everything not yet consumed.
  std::span<const std::uint8_t> rest() {
    auto r = data_.subspan(pos_);
    pos_ = data_.size();
    return r;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (remaining() < n) {
      // pw-analyze: allow(hot-throw): the underflow throw is the
      // codec's malformed-frame signal — intact frames never take this
      // branch, so it is cold by construction even when a PW_HOT
      // delivery path parses received octets (the MAC catches at frame
      // boundary and drops the frame).
      throw BufferUnderflow("read of " + std::to_string(n) +
                            " bytes with only " + std::to_string(remaining()) +
                            " remaining");
    }
    auto r = data_.subspan(pos_, n);
    pos_ += n;
    return r;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace politewifi
