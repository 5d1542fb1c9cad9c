#include "crypto/hmac.h"

#include <algorithm>
#include <array>

namespace politewifi::crypto {

namespace {

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_be32(std::uint32_t v, std::uint8_t* p) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

Sha1::Digest to_digest(const std::uint32_t* words) {
  Sha1::Digest d;
  for (int i = 0; i < 5; ++i) store_be32(words[i], d.data() + 4 * i);
  return d;
}

void to_words(const Sha1::Digest& d, std::uint32_t* words) {
  for (int i = 0; i < 5; ++i) words[i] = load_be32(d.data() + 4 * i);
}

/// HMAC-SHA1 with a fixed key: its inner and outer chaining states.
class HmacSha1 {
 public:
  /// A 20-octet message padded as the last SHA-1 block of both the inner
  /// and the outer hash: each hashes one 64-octet key pad and then these
  /// 20 octets, 672 bits in all. Words 0-4 hold the message big-endian;
  /// word 5 is the 0x80 marker, word 15 the bit length.
  struct Block {
    std::array<std::uint32_t, 16> w{
        0, 0, 0, 0, 0, 0x80000000u, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        (Sha1::kBlockSize + Sha1::kDigestSize) * 8};
  };

  /// Keys the MAC with `key` of any length (longer than 64 octets is
  /// hashed first): two compressions.
  explicit HmacSha1(std::span<const std::uint8_t> key) {
    std::array<std::uint8_t, Sha1::kBlockSize> k_block{};
    if (key.size() > Sha1::kBlockSize) {
      const auto digest = Sha1::hash(key);
      std::copy(digest.begin(), digest.end(), k_block.begin());
    } else {
      std::copy(key.begin(), key.end(), k_block.begin());
    }

    std::uint32_t ipad[16] = {}, opad[16] = {};
    for (int i = 0; i < 16; ++i) {
      const std::uint32_t k = load_be32(k_block.data() + 4 * i);
      ipad[i] = k ^ 0x36363636u;
      opad[i] = k ^ 0x5c5c5c5cu;
    }
    Sha1::compress(inner_, ipad);
    Sha1::compress(outer_, opad);
  }

  /// HMAC over `data` of any length.
  Sha1::Digest mac(std::span<const std::uint8_t> data) const {
    Sha1 inner(inner_, 1);
    inner.update(data);
    Block block;
    to_words(inner.finalize(), block.w.data());
    Sha1::State outer = outer_;
    Sha1::compress(outer, block.w.data());
    return to_digest(outer.data());
  }

  /// Replaces the message in `block` by its MAC: exactly two
  /// compressions, the padding words untouched.
  void mac_in_place(Block& block) const {
    Sha1::State state = inner_;
    Sha1::compress(state, block.w.data());
    std::copy(state.begin(), state.end(), block.w.begin());
    state = outer_;
    Sha1::compress(state, block.w.data());
    std::copy(state.begin(), state.end(), block.w.begin());
  }

 private:
  Sha1::State inner_ = Sha1::kInitialState;
  Sha1::State outer_ = Sha1::kInitialState;
};

}  // namespace

Sha1::Digest hmac_sha1(std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> data) {
  return HmacSha1(key).mac(data);
}

std::vector<std::uint8_t> pbkdf2_sha1(std::string_view password,
                                      std::span<const std::uint8_t> salt,
                                      unsigned iterations,
                                      std::size_t dk_len) {
  const HmacSha1 prf({reinterpret_cast<const std::uint8_t*>(password.data()),
                      password.size()});

  std::vector<std::uint8_t> msg(salt.begin(), salt.end());
  msg.resize(salt.size() + 4);
  std::vector<std::uint8_t> dk;
  dk.reserve(dk_len);
  for (std::uint32_t block = 1; dk.size() < dk_len; ++block) {
    // U1 = HMAC(P, S || INT(block)), through the general path.
    store_be32(block, msg.data() + salt.size());
    const Sha1::Digest u1 = prf.mac(msg);
    HmacSha1::Block u;
    to_words(u1, u.w.data());
    std::uint32_t t[5] = {u.w[0], u.w[1], u.w[2], u.w[3], u.w[4]};
    // U_i = HMAC(P, U_{i-1}): two compressions each, T = U1 ^ ... ^ Uc.
    for (unsigned i = 1; i < iterations; ++i) {
      prf.mac_in_place(u);
      for (int j = 0; j < 5; ++j) t[j] ^= u.w[j];
    }
    const Sha1::Digest t_bytes = to_digest(t);
    const std::size_t take = std::min(t_bytes.size(), dk_len - dk.size());
    dk.insert(dk.end(), t_bytes.begin(),
              t_bytes.begin() + static_cast<long>(take));
  }
  return dk;
}

std::vector<std::uint8_t> ieee80211_prf(std::span<const std::uint8_t> key,
                                        std::string_view label,
                                        std::span<const std::uint8_t> context,
                                        std::size_t bits) {
  const std::size_t out_len = (bits + 7) / 8;
  std::vector<std::uint8_t> out;
  out.reserve(out_len + Sha1::kDigestSize);

  std::vector<std::uint8_t> msg;
  msg.insert(msg.end(), label.begin(), label.end());
  msg.push_back(0x00);  // the standard's mandated separator octet
  msg.insert(msg.end(), context.begin(), context.end());
  msg.push_back(0x00);  // counter placeholder
  const std::size_t counter_pos = msg.size() - 1;

  const HmacSha1 prf(key);
  for (std::uint8_t counter = 0; out.size() < out_len; ++counter) {
    msg[counter_pos] = counter;
    const auto digest = prf.mac(msg);
    out.insert(out.end(), digest.begin(), digest.end());
  }
  out.resize(out_len);
  return out;
}

}  // namespace politewifi::crypto
