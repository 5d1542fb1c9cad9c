#include "crypto/sha1.h"

#include <cstring>
#include <utility>

namespace politewifi::crypto {

namespace {

constexpr std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

/// FIPS 180-4 §4.1.1's f_t for round I.
template <int I>
constexpr std::uint32_t round_f(std::uint32_t b, std::uint32_t c,
                                std::uint32_t d) {
  if constexpr (I < 20) {
    return d ^ (b & (c ^ d));  // Ch
  } else if constexpr (I >= 40 && I < 60) {
    return (b & c) | (d & (b | c));  // Maj
  } else {
    return b ^ c ^ d;  // Parity
  }
}

/// FIPS 180-4 §4.2.1's K_t, one per 20 rounds.
constexpr std::uint32_t kRoundK[4] = {0x5A827999u, 0x6ED9EBA1u,
                                      0x8F1BBCDCu, 0xCA62C1D6u};

/// Round I of the compression. `s` holds the five working words; the
/// roles rotate instead of the values: a sits in slot (5 - I % 5) % 5
/// and b..e follow it cyclically, so after 80 rounds a is back in slot 0.
/// `x` is the message schedule as a 16-word ring: from round 16 on,
/// slot I % 16 is overwritten with W[I] once its old value W[I-16] has
/// been folded in.
template <int I>
inline void sha1_round(std::uint32_t (&s)[5], std::uint32_t (&x)[16]) {
  constexpr int a = (5 - I % 5) % 5;
  constexpr int b = (a + 1) % 5, c = (a + 2) % 5, d = (a + 3) % 5,
                e = (a + 4) % 5;
  if constexpr (I >= 16) {
    x[I % 16] = rotl(x[(I + 13) % 16] ^ x[(I + 8) % 16] ^
                         x[(I + 2) % 16] ^ x[I % 16],
                     1);
  }
  s[e] += rotl(s[a], 5) + round_f<I>(s[b], s[c], s[d]) + kRoundK[I / 20] +
          x[I % 16];
  s[b] = rotl(s[b], 30);
}

template <std::size_t... I>
inline void sha1_rounds(std::uint32_t (&s)[5], std::uint32_t (&x)[16],
                        std::index_sequence<I...>) {
  (sha1_round<static_cast<int>(I)>(s, x), ...);
}

}  // namespace

void Sha1::update(std::span<const std::uint8_t> data) {
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t i = 0;
  // Fill a partial buffer first.
  if (buffer_len_ > 0) {
    const std::size_t need = 64 - buffer_len_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    i = take;
    if (buffer_len_ == 64) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  // Whole blocks straight from input.
  for (; i + 64 <= data.size(); i += 64) process_block(data.data() + i);
  // Stash the tail.
  if (i < data.size()) {
    buffer_len_ = data.size() - i;
    std::memcpy(buffer_.data(), data.data() + i, buffer_len_);
  }
}

Sha1::Digest Sha1::finalize() {
  // Append 0x80, zero-pad to 56 mod 64, append 64-bit big-endian length.
  const std::uint64_t bits = total_bits_;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  process_block(buffer_.data());
  buffer_len_ = 0;

  Digest d;
  for (int i = 0; i < 5; ++i) {
    d[i * 4 + 0] = static_cast<std::uint8_t>(h_[i] >> 24);
    d[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    d[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    d[i * 4 + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return d;
}

Sha1::Digest Sha1::hash(std::span<const std::uint8_t> data) {
  Sha1 s;
  s.update(data);
  return s.finalize();
}

void Sha1::compress(State& state, const std::uint32_t w[16]) {
  std::uint32_t x[16];
  std::memcpy(x, w, sizeof x);
  std::uint32_t s[5] = {state[0], state[1], state[2], state[3], state[4]};
  sha1_rounds(s, x, std::make_index_sequence<80>{});
  for (int i = 0; i < 5; ++i) state[i] += s[i];
}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[i * 4]} << 24) |
           (std::uint32_t{block[i * 4 + 1]} << 16) |
           (std::uint32_t{block[i * 4 + 2]} << 8) |
           std::uint32_t{block[i * 4 + 3]};
  }
  compress(h_, w);
}

}  // namespace politewifi::crypto
