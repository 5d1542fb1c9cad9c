// Crypto substrate tests against published vectors: FIPS-197 AES,
// FIPS-180 SHA-1, RFC 2202 HMAC, RFC 6070 PBKDF2, RFC 3610 CCM, the
// IEEE 802.11i PMK vectors, and CCMP frame protection properties. SHA-1
// is also run at every block-boundary length, and PBKDF2 against a
// test-only RFC 2898 transcription across length and iteration splits.
#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "crypto/ccmp.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "crypto/wpa2.h"
#include "frames/data.h"

namespace politewifi::crypto {
namespace {

Bytes from_hex(const std::string& hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string to_hex(std::span<const std::uint8_t> data) {
  std::string out;
  char buf[3];
  for (const auto b : data) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

// --- AES-128 (FIPS-197 Appendix C.1) ----------------------------------------

TEST(Aes128, Fips197Vector) {
  Aes128::Key key;
  const auto key_bytes = from_hex("000102030405060708090a0b0c0d0e0f");
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  Aes128::Block block;
  const auto pt = from_hex("00112233445566778899aabbccddeeff");
  std::copy(pt.begin(), pt.end(), block.begin());

  const Aes128 cipher(key);
  cipher.encrypt_block(block);
  EXPECT_EQ(to_hex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, SP800_38A_EcbVector) {
  // NIST SP 800-38A F.1.1 ECB-AES128 block #1.
  Aes128::Key key;
  const auto kb = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  std::copy(kb.begin(), kb.end(), key.begin());
  Aes128::Block block;
  const auto pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  std::copy(pt.begin(), pt.end(), block.begin());
  Aes128(key).encrypt_block(block);
  EXPECT_EQ(to_hex(block), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes128, DeterministicAndKeyDependent) {
  Aes128::Key k1{}, k2{};
  k2[15] = 1;
  Aes128::Block b{};
  const auto c1 = Aes128(k1).encrypt(b);
  const auto c2 = Aes128(k1).encrypt(b);
  const auto c3 = Aes128(k2).encrypt(b);
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, c3);
}

// --- SHA-1 (FIPS-180 examples) --------------------------------------------------

TEST(Sha1, EmptyString) {
  EXPECT_EQ(to_hex(Sha1::hash({})),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  const std::string msg = "abc";
  const std::span<const std::uint8_t> data{
      reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()};
  EXPECT_EQ(to_hex(Sha1::hash(data)),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  const std::string msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  const std::span<const std::uint8_t> data{
      reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()};
  EXPECT_EQ(to_hex(Sha1::hash(data)),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  const std::span<const std::uint8_t> data{
      reinterpret_cast<const std::uint8_t*>(chunk.data()), chunk.size()};
  for (int i = 0; i < 1000; ++i) h.update(data);
  EXPECT_EQ(to_hex(h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  Bytes data(317);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  Sha1 h;
  h.update(std::span(data).first(1));
  h.update(std::span(data).subspan(1, 63));
  h.update(std::span(data).subspan(64, 128));
  h.update(std::span(data).subspan(192));
  EXPECT_EQ(h.finalize(), Sha1::hash(data));
}

TEST(Sha1, EveryBlockBoundaryLength) {
  // Messages of 0..200 octets cross every update/finalize split: a
  // one-block and a two-block final pad (lengths 55/56 mod 64), whole
  // blocks, and tails of every size. Byte i of message n is
  // (7i + n) & 0xff; the 201 digests are chained into one hash whose
  // expected value comes from Python's hashlib.
  Sha1 chain;
  for (std::size_t n = 0; n <= 200; ++n) {
    Bytes msg(n);
    for (std::size_t i = 0; i < n; ++i) {
      msg[i] = static_cast<std::uint8_t>(7 * i + n);
    }
    chain.update(Sha1::hash(msg));
  }
  EXPECT_EQ(to_hex(chain.finalize()),
            "d0de06f4c5cb01efe13d538b17bbc0bd8144a1c2");
}

// --- HMAC-SHA1 (RFC 2202) ----------------------------------------------------------

TEST(HmacSha1, Rfc2202Case1) {
  const Bytes key(20, 0x0b);
  const std::string msg = "Hi There";
  const std::span<const std::uint8_t> data{
      reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()};
  EXPECT_EQ(to_hex(hmac_sha1(key, data)),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1, Rfc2202Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const std::span<const std::uint8_t> k{
      reinterpret_cast<const std::uint8_t*>(key.data()), key.size()};
  const std::span<const std::uint8_t> m{
      reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()};
  EXPECT_EQ(to_hex(hmac_sha1(k, m)),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacSha1, Rfc2202Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha1(key, msg)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(HmacSha1, LongKeyIsHashedFirst) {
  // RFC 2202 case 6: 80-byte key.
  const Bytes key(80, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const std::span<const std::uint8_t> m{
      reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()};
  EXPECT_EQ(to_hex(hmac_sha1(key, m)),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

// --- PBKDF2 (RFC 6070) ----------------------------------------------------------------

/// RFC 2898 §5.2 transcribed literally on the public hmac_sha1 — the
/// test-only oracle for the production function's keyed word path:
///   DK = T_1 || T_2 || ... || T_l, truncated to dk_len octets
///   T_i = U_1 ^ U_2 ^ ... ^ U_c
///   U_1 = PRF(P, S || INT(i)),  U_j = PRF(P, U_{j-1})
Bytes reference_pbkdf2_sha1(std::span<const std::uint8_t> password,
                            std::span<const std::uint8_t> salt,
                            unsigned c, std::size_t dk_len) {
  const std::size_t h_len = Sha1::kDigestSize;
  const std::size_t l = (dk_len + h_len - 1) / h_len;
  Bytes dk;
  for (std::uint32_t i = 1; i <= l; ++i) {
    Bytes msg(salt.begin(), salt.end());
    for (int shift = 24; shift >= 0; shift -= 8) {
      msg.push_back(static_cast<std::uint8_t>(i >> shift));
    }
    Sha1::Digest u = hmac_sha1(password, msg);
    Sha1::Digest t = u;
    for (unsigned j = 2; j <= c; ++j) {
      u = hmac_sha1(password, u);
      for (std::size_t k = 0; k < h_len; ++k) t[k] ^= u[k];
    }
    dk.insert(dk.end(), t.begin(), t.end());
  }
  dk.resize(dk_len);
  return dk;
}

TEST(Pbkdf2, MatchesRfc2898Reference) {
  // Passwords past 64 octets take the hashed-key branch. U_1's message
  // is the salt plus 4 octets, so the salt lengths put it on both sides
  // of SHA-1's padding splits (55/56 and 64 octets mod 64). dk_len
  // covers partial, whole and multiple output blocks.
  for (const std::size_t pw_len : {0, 1, 8, 63, 64, 65, 100}) {
    std::string password(pw_len, '\0');
    for (std::size_t i = 0; i < pw_len; ++i) {
      password[i] = static_cast<char>((31 * i + pw_len) & 0xff);
    }
    const std::span<const std::uint8_t> pw{
        reinterpret_cast<const std::uint8_t*>(password.data()),
        password.size()};
    for (const std::size_t salt_len :
         {0, 1, 4, 51, 52, 55, 56, 59, 60, 64, 100}) {
      Bytes salt(salt_len);
      for (std::size_t i = 0; i < salt_len; ++i) {
        salt[i] = static_cast<std::uint8_t>(13 * i + salt_len + 1);
      }
      for (const unsigned iterations : {1u, 2u, 3u, 17u}) {
        for (const std::size_t dk_len : {1, 19, 20, 21, 32, 40, 41}) {
          EXPECT_EQ(to_hex(pbkdf2_sha1(password, salt, iterations, dk_len)),
                    to_hex(reference_pbkdf2_sha1(pw, salt, iterations,
                                                 dk_len)))
              << "password " << pw_len << " salt " << salt_len
              << " iterations " << iterations << " dk_len " << dk_len;
        }
      }
    }
  }
}

TEST(Pbkdf2, Rfc6070Case1) {
  const std::string salt = "salt";
  const std::span<const std::uint8_t> s{
      reinterpret_cast<const std::uint8_t*>(salt.data()), salt.size()};
  EXPECT_EQ(to_hex(pbkdf2_sha1("password", s, 1, 20)),
            "0c60c80f961f0e71f3a9b524af6012062fe037a6");
}

TEST(Pbkdf2, Rfc6070Case2) {
  const std::string salt = "salt";
  const std::span<const std::uint8_t> s{
      reinterpret_cast<const std::uint8_t*>(salt.data()), salt.size()};
  EXPECT_EQ(to_hex(pbkdf2_sha1("password", s, 2, 20)),
            "ea6c014dc72d6f8ccd1ed92ace1d41f0d8de8957");
}

TEST(Pbkdf2, Rfc6070Case4096) {
  const std::string salt = "salt";
  const std::span<const std::uint8_t> s{
      reinterpret_cast<const std::uint8_t*>(salt.data()), salt.size()};
  EXPECT_EQ(to_hex(pbkdf2_sha1("password", s, 4096, 20)),
            "4b007901b765489abead49d926f721d065a429c1");
}

TEST(Pbkdf2, Rfc6070LongOutput) {
  const std::string salt = "saltSALTsaltSALTsaltSALTsaltSALTsalt";
  const std::span<const std::uint8_t> s{
      reinterpret_cast<const std::uint8_t*>(salt.data()), salt.size()};
  EXPECT_EQ(
      to_hex(pbkdf2_sha1("passwordPASSWORDpassword", s, 4096, 25)),
      "3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038");
}

TEST(Pbkdf2, Rfc6070EmbeddedNuls) {
  const std::string password("pass\0word", 9);
  const std::string salt("sa\0lt", 5);
  const std::span<const std::uint8_t> s{
      reinterpret_cast<const std::uint8_t*>(salt.data()), salt.size()};
  EXPECT_EQ(to_hex(pbkdf2_sha1(password, s, 4096, 16)),
            "56fa6aa75548099dcc37d7f03425e0c3");
}

// --- WPA2 key hierarchy -------------------------------------------------------------------

TEST(Wpa2, KnownPmkVector) {
  // The canonical 802.11i PSK test vector (IEEE Std 802.11-2016 J.4.2):
  // passphrase "password", SSID "IEEE".
  const Pmk pmk = derive_pmk("password", "IEEE");
  EXPECT_EQ(to_hex(pmk),
            "f42c6fc52df0ebef9ebb4b90b38a5f902e83fe1b135a70e23aed762e9710a12e");
}

TEST(Wpa2, KnownPmkVectorsJ42) {
  // IEEE Std 802.11-2016 J.4.2's other two PSK vectors.
  EXPECT_EQ(to_hex(derive_pmk("ThisIsAPassword", "ThisIsASSID")),
            "0dc0d6eb90555ed6419756b9a15ec3e3209b63df707dd508d14581f8982721af");
  EXPECT_EQ(to_hex(derive_pmk(std::string(32, 'a'), std::string(32, 'Z'))),
            "becb93866bb8c3832cb777c2f559807c8c59afcb6eae734885001300a981cc62");
}

TEST(Wpa2, PtkSymmetricInNonceAndMacOrder) {
  const Pmk pmk = derive_pmk("secret", "net");
  const MacAddress ap{1, 2, 3, 4, 5, 6};
  const MacAddress sta{9, 8, 7, 6, 5, 4};
  Nonce a{}, s{};
  a[0] = 0x11;
  s[0] = 0x22;
  const Ptk p1 = derive_ptk(pmk, ap, sta, a, s);
  // The PTK derivation canonicalizes (min, max); both link ends agree.
  const Ptk p2 = derive_ptk(pmk, ap, sta, a, s);
  EXPECT_EQ(p1.tk, p2.tk);
  EXPECT_EQ(p1.kck, p2.kck);
}

TEST(Wpa2, DifferentNoncesGiveDifferentKeys) {
  const Pmk pmk = derive_pmk("secret", "net");
  const MacAddress ap{1, 2, 3, 4, 5, 6};
  const MacAddress sta{9, 8, 7, 6, 5, 4};
  Nonce a{}, s1{}, s2{};
  s1[0] = 1;
  s2[0] = 2;
  EXPECT_NE(derive_ptk(pmk, ap, sta, a, s1).tk,
            derive_ptk(pmk, ap, sta, a, s2).tk);
}

TEST(Wpa2, FastPtkAgreesAcrossEnds) {
  const MacAddress ap{1, 2, 3, 4, 5, 6};
  const MacAddress sta{9, 8, 7, 6, 5, 4};
  EXPECT_EQ(derive_fast_ptk(ap, sta).tk, derive_fast_ptk(ap, sta).tk);
  EXPECT_NE(derive_fast_ptk(ap, sta).tk,
            derive_fast_ptk(sta, ap).tk);  // role order matters by design
}

// --- CCM (RFC 3610 vector 1) -----------------------------------------------------------

TEST(Ccm, Rfc3610Vector1) {
  Aes128::Key key;
  const auto kb = from_hex("c0c1c2c3c4c5c6c7c8c9cacbcccdcecf");
  std::copy(kb.begin(), kb.end(), key.begin());
  const Aes128 cipher(key);

  const Bytes nonce = from_hex("00000003020100a0a1a2a3a4a5");
  const Bytes aad = from_hex("0001020304050607");
  const Bytes plaintext =
      from_hex("08090a0b0c0d0e0f101112131415161718191a1b1c1d1e");

  const Bytes out = ccm::encrypt(cipher, nonce, aad, plaintext);
  EXPECT_EQ(to_hex(out),
            "588c979a61c663d2f066d0c2c0f989806d5f6b61dac384"
            "17e8d12cfdf926e0");
}

TEST(Ccm, DecryptInvertsEncrypt) {
  Aes128::Key key{};
  key[0] = 0x42;
  const Aes128 cipher(key);
  const Bytes nonce(13, 0x07);
  const Bytes aad{1, 2, 3};
  const Bytes plaintext{10, 20, 30, 40, 50};

  const Bytes ct = ccm::encrypt(cipher, nonce, aad, plaintext);
  const auto pt = ccm::decrypt(cipher, nonce, aad, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, plaintext);
}

TEST(Ccm, TamperedCiphertextFailsMic) {
  Aes128::Key key{};
  const Aes128 cipher(key);
  const Bytes nonce(13, 0x01);
  const Bytes aad{9};
  Bytes ct = ccm::encrypt(cipher, nonce, aad, Bytes{1, 2, 3});
  ct[0] ^= 0x80;
  EXPECT_FALSE(ccm::decrypt(cipher, nonce, aad, ct).has_value());
}

TEST(Ccm, WrongAadFailsMic) {
  Aes128::Key key{};
  const Aes128 cipher(key);
  const Bytes nonce(13, 0x01);
  const Bytes ct = ccm::encrypt(cipher, nonce, Bytes{1}, Bytes{5, 5});
  EXPECT_FALSE(ccm::decrypt(cipher, nonce, Bytes{2}, ct).has_value());
}

// --- CCMP frame protection -----------------------------------------------------------------

frames::Frame sample_data_frame() {
  const MacAddress bssid{1, 2, 3, 4, 5, 6};
  const MacAddress sa{7, 8, 9, 10, 11, 12};
  return frames::make_data_to_ds(bssid, sa, bssid,
                                 Bytes{'h', 'e', 'l', 'l', 'o'}, 33);
}

TEST(Ccmp, ProtectUnprotectRoundTrip) {
  Aes128::Key tk{};
  tk[5] = 0xAB;
  frames::Frame f = sample_data_frame();
  const Bytes original_body = f.body;

  ccmp_protect(f, tk, 1);
  EXPECT_TRUE(f.fc.protected_frame);
  EXPECT_EQ(f.body.size(), original_body.size() + 8 + 8);  // hdr + MIC
  EXPECT_NE(f.body, original_body);

  ASSERT_TRUE(ccmp_unprotect(f, tk));
  EXPECT_FALSE(f.fc.protected_frame);
  EXPECT_EQ(f.body, original_body);
}

TEST(Ccmp, WrongKeyFails) {
  Aes128::Key tk{}, other{};
  other[0] = 1;
  frames::Frame f = sample_data_frame();
  ccmp_protect(f, tk, 1);
  EXPECT_FALSE(ccmp_unprotect(f, other));
  EXPECT_TRUE(f.fc.protected_frame);  // left untouched on failure
}

TEST(Ccmp, HeaderTamperFailsViaAad) {
  // The AAD binds addresses: retargeting a captured ciphertext fails.
  Aes128::Key tk{};
  frames::Frame f = sample_data_frame();
  ccmp_protect(f, tk, 7);
  f.addr3 = MacAddress{0xff, 0, 0, 0, 0, 1};
  EXPECT_FALSE(ccmp_unprotect(f, tk));
}

TEST(Ccmp, PacketNumberExtraction) {
  Aes128::Key tk{};
  frames::Frame f = sample_data_frame();
  ccmp_protect(f, tk, 123456);
  EXPECT_EQ(ccmp_packet_number(f), 123456u);
}

TEST(Wpa2Session, ReplayRejected) {
  const Ptk ptk = derive_fast_ptk({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2});
  Wpa2Session tx(ptk), rx(ptk);

  frames::Frame f1 = sample_data_frame();
  tx.protect(f1);
  frames::Frame replay = f1;
  ASSERT_TRUE(rx.unprotect(f1));
  EXPECT_FALSE(rx.unprotect(replay));  // same PN again
}

TEST(Wpa2Session, PacketNumbersIncrease) {
  const Ptk ptk = derive_fast_ptk({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2});
  Wpa2Session tx(ptk);
  frames::Frame a = sample_data_frame(), b = sample_data_frame();
  tx.protect(a);
  tx.protect(b);
  EXPECT_LT(*ccmp_packet_number(a), *ccmp_packet_number(b));
}

// --- Decode-latency model (§2.2's quantitative core) ---------------------------------------

TEST(DecodeLatency, CitedRangeCovered) {
  // The paper cites 200-700 us across frame sizes and devices.
  const DecodeLatencyModel mid{};
  EXPECT_GE(mid.decode_us(60), 180.0);
  EXPECT_LE(mid.decode_us(60), 300.0);

  const DecodeLatencyModel slow{.device_class_scale = 1.5};
  EXPECT_LE(slow.decode_us(1000), 800.0);
  EXPECT_GE(slow.decode_us(1000), 500.0);

  // Across fast/mid/slow device classes and MPDUs from 28 B to 1534 B,
  // every decode takes more than 12x the 10 us 2.4 GHz SIFS.
  for (const double device_class_scale : {0.7, 1.0, 1.5}) {
    const DecodeLatencyModel model{.device_class_scale = device_class_scale};
    for (const std::size_t bytes : {28u, 128u, 512u, 1534u}) {
      EXPECT_GT(model.decode_us(bytes), 12.0 * 10.0)
          << "class " << device_class_scale << ", " << bytes << " B";
    }
  }
}

TEST(DecodeLatency, AlwaysExceedsSifs) {
  // The unpreventability argument: even the fastest modeled device on the
  // smallest frame takes an order of magnitude longer than SIFS.
  const DecodeLatencyModel fast{.device_class_scale = 0.7};
  EXPECT_GT(fast.decode_us(14), 10.0 * 10.0);  // >10x the 10 us SIFS
}

}  // namespace
}  // namespace politewifi::crypto
