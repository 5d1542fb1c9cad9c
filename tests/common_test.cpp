// Unit tests for the common substrate: MAC addresses, byte codec, CRC-32,
// clock formatting, units and RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "common/byte_buffer.h"
#include "common/clock.h"
#include "common/crc32.h"
#include "common/json.h"
#include "common/json_parse.h"
#include "common/mac_address.h"
#include "common/rng.h"
#include "common/units.h"

namespace politewifi {
namespace {

// --- MacAddress ---------------------------------------------------------------

TEST(MacAddress, DefaultIsZero) {
  MacAddress m;
  EXPECT_TRUE(m.is_zero());
  EXPECT_FALSE(m.is_broadcast());
  EXPECT_EQ(m.to_string(), "00:00:00:00:00:00");
}

TEST(MacAddress, ParseRoundTrip) {
  const auto m = MacAddress::parse("aa:bb:cc:dd:ee:ff");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->to_string(), "aa:bb:cc:dd:ee:ff");
}

TEST(MacAddress, ParseAcceptsDashesAndUppercase) {
  const auto m = MacAddress::parse("AA-BB-CC-00-11-22");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->to_string(), "aa:bb:cc:00:11:22");
}

TEST(MacAddress, ParseRejectsMalformed) {
  EXPECT_FALSE(MacAddress::parse("").has_value());
  EXPECT_FALSE(MacAddress::parse("aa:bb:cc:dd:ee").has_value());
  EXPECT_FALSE(MacAddress::parse("aa:bb:cc:dd:ee:fg").has_value());
  EXPECT_FALSE(MacAddress::parse("aabbccddeeff0011").has_value());
  EXPECT_FALSE(MacAddress::parse("aa bb:cc:dd:ee:ff").has_value());
}

TEST(MacAddress, PaperFakeAddress) {
  // The spoofed source used throughout the paper's figures.
  EXPECT_EQ(MacAddress::paper_fake_address().to_string(), "aa:bb:bb:bb:bb:bb");
}

TEST(MacAddress, BroadcastProperties) {
  const auto b = MacAddress::broadcast();
  EXPECT_TRUE(b.is_broadcast());
  EXPECT_TRUE(b.is_group());
}

TEST(MacAddress, OuiExtraction) {
  const MacAddress m{0xf0, 0x18, 0x98, 0x01, 0x02, 0x03};
  EXPECT_EQ(m.oui(), 0xf01898u);
  EXPECT_FALSE(m.locally_administered());
  EXPECT_FALSE(m.is_group());
}

TEST(MacAddress, LocallyAdministeredBit) {
  const MacAddress m{0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
  EXPECT_TRUE(m.locally_administered());
}

TEST(MacAddress, U64RoundTrip) {
  const MacAddress m{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc};
  EXPECT_EQ(MacAddress::from_u64(m.to_u64()), m);
}

TEST(MacAddress, OrderingIsTotalAndConsistent) {
  const MacAddress a{0, 0, 0, 0, 0, 1};
  const MacAddress b{0, 0, 0, 0, 1, 0};
  EXPECT_LT(a, b);
  EXPECT_NE(std::hash<MacAddress>{}(a), std::hash<MacAddress>{}(b));
}

// --- ByteWriter / ByteReader ----------------------------------------------------

TEST(ByteBuffer, LittleEndianRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16le(0x1234);
  w.u32le(0xDEADBEEF);
  w.u64le(0x0123456789ABCDEFull);

  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16le(), 0x1234);
  EXPECT_EQ(r.u32le(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64le(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, LittleEndianByteOrderOnWire) {
  ByteWriter w;
  w.u16le(0x1234);
  ASSERT_EQ(w.view().size(), 2u);
  EXPECT_EQ(w.view()[0], 0x34);  // LSB first, as 802.11 requires
  EXPECT_EQ(w.view()[1], 0x12);
}

TEST(ByteBuffer, BigEndianHelpers) {
  ByteWriter w;
  w.u16be(0x1234);
  w.u32be(0xCAFEBABE);
  ByteReader r(w.view());
  EXPECT_EQ(r.u16be(), 0x1234);
  auto rest = r.rest();
  EXPECT_EQ(rest.size(), 4u);
  EXPECT_EQ(rest[0], 0xCA);
}

TEST(ByteBuffer, UnderflowThrows) {
  const Bytes data{1, 2, 3};
  ByteReader r(data);
  r.bytes(2);
  EXPECT_THROW(r.u16le(), BufferUnderflow);
}

TEST(ByteBuffer, PatchU16) {
  ByteWriter w;
  w.u16le(0);
  w.u8(9);
  w.patch_u16le(0, 0xBEEF);
  ByteReader r(w.view());
  EXPECT_EQ(r.u16le(), 0xBEEF);
}

// --- CRC-32 ---------------------------------------------------------------------

TEST(Crc32, StandardCheckValue) {
  // The canonical CRC-32 check: crc32("123456789") == 0xCBF43926.
  const std::string s = "123456789";
  const std::span<const std::uint8_t> data{
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data(1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 13);
  }
  std::uint32_t state = crc32_init();
  state = crc32_update(state, std::span(data).first(100));
  state = crc32_update(state, std::span(data).subspan(100, 500));
  state = crc32_update(state, std::span(data).subspan(600));
  EXPECT_EQ(crc32_final(state), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlips) {
  Bytes data{0x00, 0x11, 0x22, 0x33, 0x44, 0x55};
  const std::uint32_t original = crc32(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes copy = data;
      copy[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc32(copy), original)
          << "undetected flip at byte " << byte << " bit " << bit;
    }
  }
}

// --- Clock / units -----------------------------------------------------------------

TEST(Clock, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(10)), 10.0);
  EXPECT_EQ(from_seconds(1.5), milliseconds(1500));
}

TEST(Clock, FormatTime) {
  const TimePoint t = kSimStart + milliseconds(1234);
  EXPECT_EQ(format_time(t), "1.234000s");
}

TEST(Units, DbmMwRoundTrip) {
  EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(dbm_to_mw(10.0), 10.0, 1e-9);
  EXPECT_NEAR(mw_to_dbm(dbm_to_mw(-37.5)), -37.5, 1e-9);
}

TEST(Units, ThermalNoise20MHz) {
  // kTB for 20 MHz is the textbook -101 dBm.
  EXPECT_NEAR(thermal_noise_dbm(20e6), -101.0, 0.2);
}

TEST(Units, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
}

TEST(Units, Wavelength) {
  EXPECT_NEAR(wavelength(2.437e9), 0.123, 0.001);   // 2.4 GHz ch 6
  EXPECT_NEAR(wavelength(5.18e9), 0.0579, 0.0005);  // 5 GHz ch 36
}

// --- RNG -----------------------------------------------------------------------------

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool diverged = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform() != b.uniform()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng child = parent.fork();
  // The fork must not replay the parent's stream.
  Rng parent2(5);
  parent2.fork();
  bool differs = false;
  for (int i = 0; i < 20; ++i) {
    if (child.uniform() != parent.uniform()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, GaussianMoments) {
  Rng rng(123);
  double sum = 0.0, sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

// The medium decides frame loss as canonical() < fer instead of
// bernoulli(fer), so the two must agree draw for draw and consume the
// engine identically. p covers both degenerate ends, a tiny p, uniform
// and small uniform p, and — where only the exact comparison agrees —
// the very uniform about to be drawn and the double just above it,
// read off a third engine in lockstep through the library's own
// generate_canonical.
TEST(Rng, CanonicalReproducesBernoulli) {
  constexpr std::uint64_t kSeed = 20201104;
  Rng by_bernoulli(kSeed);
  Rng by_canonical(kSeed);
  Rng peek(kSeed);
  Rng probabilities(7);
  constexpr int kDraws = 10'000'000;
  int mismatches = 0;
  int first_mismatch = -1;
  for (int i = 0; i < kDraws; ++i) {
    const double next =
        std::generate_canonical<double, std::numeric_limits<double>::digits>(
            peek.engine());
    double p = 0.0;
    switch (i % 7) {
      case 0: p = 0.0; break;
      case 1: p = 1.0; break;
      case 2: p = 1e-300; break;
      case 3: p = probabilities.uniform(); break;
      case 4: p = probabilities.uniform() * 1e-6; break;
      case 5: p = next; break;  // u < u: never a loss
      default: p = std::nextafter(next, 2.0); break;  // always a loss
    }
    if (by_bernoulli.bernoulli(p) != (by_canonical.canonical() < p)) {
      if (mismatches++ == 0) first_mismatch = i;
    }
  }
  EXPECT_EQ(mismatches, 0) << "first at draw " << first_mismatch;
  // Lockstep: every decision consumed exactly one engine output.
  const std::uint64_t after = peek.engine()();
  EXPECT_EQ(by_bernoulli.engine()(), after);
  EXPECT_EQ(by_canonical.engine()(), after);
}

// --- Logging ---------------------------------------------------------------------------

// --- JSON parser --------------------------------------------------------------

TEST(JsonParse, DumpIsAParseFixedPoint) {
  common::Json doc = common::Json::object();
  doc["int"] = std::int64_t{-42};
  doc["double"] = 0.194662137;
  doc["big"] = 1.23456789012e17;
  doc["zero"] = 0.0;
  doc["bool"] = true;
  doc["null"] = common::Json();
  doc["text"] = std::string("tabs\there \"quoted\" slash\\");
  common::Json list = common::Json::array();
  list.push_back(std::int64_t{1});
  list.push_back(2.5);
  list.push_back("three");
  doc["list"] = std::move(list);

  const std::string once = doc.dump();
  std::string error;
  const auto parsed = common::parse_json(once, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  // The round trip is a fixed point: parse(dump(x)) dumps identically.
  EXPECT_EQ(parsed->dump(), once);
  const auto twice = common::parse_json(parsed->dump());
  ASSERT_TRUE(twice.has_value());
  EXPECT_EQ(twice->dump(), once);
}

TEST(JsonParse, IntegralDoublesComeBackAsInts) {
  // %.12g renders 3.0 as "3", so the reparse yields an Int; dumping
  // again still reproduces the same bytes — that is all the reduction
  // pipeline needs.
  common::Json doc = common::Json::object();
  doc["v"] = 3.0;
  const std::string text = doc.dump();
  const auto parsed = common::parse_json(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("v")->kind(), common::Json::Kind::kInt);
  EXPECT_EQ(parsed->find("v")->as_double(), 3.0);
  EXPECT_EQ(parsed->dump(), text);
}

TEST(JsonParse, UnicodeEscapesAndControlCharactersRoundTrip) {
  common::Json doc = common::Json::object();
  doc["ctl"] = std::string("a\x01" "b\x1f");
  const std::string text = doc.dump();
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  const auto parsed = common::parse_json(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("ctl")->as_string(), "a\x01" "b\x1f");
  // Surrogate pairs decode to UTF-8.
  const auto emoji = common::parse_json("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(emoji.has_value());
  EXPECT_EQ(emoji->as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(common::parse_json("", &error).has_value());
  EXPECT_FALSE(common::parse_json("{", &error).has_value());
  EXPECT_FALSE(common::parse_json("{\"a\":1,}", &error).has_value());
  EXPECT_FALSE(common::parse_json("[1 2]", &error).has_value());
  EXPECT_FALSE(common::parse_json("1 2", &error).has_value());
  EXPECT_FALSE(common::parse_json("NaN", &error).has_value());
  EXPECT_FALSE(common::parse_json("Infinity", &error).has_value());
  EXPECT_FALSE(common::parse_json("01", &error).has_value());
  EXPECT_FALSE(common::parse_json("\"\\ud800\"", &error).has_value());
  EXPECT_FALSE(common::parse_json("\"unterminated", &error).has_value());
  EXPECT_FALSE(common::parse_json("truely", &error).has_value());
  // Errors carry a position.
  common::parse_json("[1, oops]", &error);
  EXPECT_NE(error.find("offset"), std::string::npos);
}

TEST(JsonParse, ArrayElementAccessIsChecked) {
  const auto parsed = common::parse_json("[10, 20, 30]");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ(parsed->at(1).as_int(), 20);
}

}  // namespace
}  // namespace politewifi
