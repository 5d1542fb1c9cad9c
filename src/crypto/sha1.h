// SHA-1 (FIPS-180), from scratch.
//
// WPA2-PSK's key derivation (PBKDF2 and the 802.11i PRF) is built on
// HMAC-SHA1, so the simulator needs a real SHA-1. (SHA-1 is broken for
// collision resistance, but that is irrelevant to HMAC/PBKDF2 use and we
// match the deployed standard rather than improving on it.)
//
// Every SHA-1 user goes through one word-level kernel, `Sha1::compress`:
// its 80 rounds are unrolled at compile time (a `template <int I>` round
// folded over an index sequence) and rename a..e from round to round
// instead of moving values, and the message schedule is a 16-word ring.
// The streaming `update`/`finalize` interface loads each 64-byte block
// big-endian and calls it; HMAC's keyed states (see crypto/hmac.h) call it
// directly on pre-padded word blocks.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace politewifi::crypto {

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;
  /// The five 32-bit chaining words H0..H4.
  using State = std::array<std::uint32_t, 5>;

  static constexpr State kInitialState{0x67452301u, 0xEFCDAB89u,
                                       0x98BADCFEu, 0x10325476u,
                                       0xC3D2E1F0u};

  Sha1() = default;

  /// Resumes a hash whose first `blocks` whole 64-byte blocks have
  /// already been folded into `state` (HMAC's keyed pads).
  Sha1(const State& state, std::uint64_t blocks)
      : h_(state), total_bits_(blocks * kBlockSize * 8) {}

  /// Feeds more message bytes; can be called repeatedly.
  void update(std::span<const std::uint8_t> data);

  /// Pads, finalizes and returns the digest. The object must not be
  /// updated afterwards (reconstruct for a new message).
  Digest finalize();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);

  /// One compression: folds the 16 message words `w` (already in
  /// big-endian word order) into `state`.
  static void compress(State& state, const std::uint32_t w[16]);

 private:
  void process_block(const std::uint8_t* block);

  State h_ = kInitialState;
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bits_ = 0;
};

}  // namespace politewifi::crypto
