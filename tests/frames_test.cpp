// Unit tests for the 802.11 frame model: frame control packing, header
// layouts, on-air sizes, serialization round trips, information elements
// and management payloads.
#include <gtest/gtest.h>

#include "frames/data.h"
#include "frames/frame_builder.h"
#include "frames/frame_template.h"
#include "frames/management.h"
#include "frames/ppdu.h"
#include "frames/serializer.h"

namespace politewifi::frames {
namespace {

const MacAddress kA{0x00, 0x11, 0x22, 0x33, 0x44, 0x55};
const MacAddress kB{0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb};
const MacAddress kC{0xcc, 0xdd, 0xee, 0xff, 0x00, 0x11};

// --- FrameControl -------------------------------------------------------------

TEST(FrameControl, PackUnpackRoundTripAllTypeSubtypeCombos) {
  for (int type = 0; type < 3; ++type) {
    for (int subtype = 0; subtype < 16; ++subtype) {
      FrameControl fc;
      fc.type = static_cast<FrameType>(type);
      fc.subtype = static_cast<std::uint8_t>(subtype);
      fc.to_ds = subtype % 2;
      fc.retry = subtype % 3 == 0;
      fc.protected_frame = subtype % 5 == 0;
      EXPECT_EQ(FrameControl::unpack(fc.pack()), fc);
    }
  }
}

TEST(FrameControl, KnownEncodings) {
  // ACK: type control (01), subtype 1101 -> 0xD4 as the first octet on
  // air (version 00, type 01, subtype 1101 packed little-endian).
  const FrameControl ack = FrameControl::control(ControlSubtype::kAck);
  EXPECT_EQ(ack.pack(), 0x00D4);
  const FrameControl rts = FrameControl::control(ControlSubtype::kRts);
  EXPECT_EQ(rts.pack(), 0x00B4);
  const FrameControl cts = FrameControl::control(ControlSubtype::kCts);
  EXPECT_EQ(cts.pack(), 0x00C4);
  const FrameControl beacon =
      FrameControl::management(ManagementSubtype::kBeacon);
  EXPECT_EQ(beacon.pack(), 0x0080);
  const FrameControl null_fn = FrameControl::data(DataSubtype::kNull);
  EXPECT_EQ(null_fn.pack(), 0x0048);
}

TEST(FrameControl, SubtypeNamesMatchWireshark) {
  EXPECT_EQ(FrameControl::data(DataSubtype::kNull).subtype_name(),
            "Null function (No data)");
  EXPECT_EQ(FrameControl::control(ControlSubtype::kAck).subtype_name(),
            "Acknowledgement");
  EXPECT_EQ(
      FrameControl::management(ManagementSubtype::kDeauthentication)
          .subtype_name(),
      "Deauthentication");
}

TEST(FrameControl, Queries) {
  EXPECT_TRUE(FrameControl::data(DataSubtype::kQosNull).is_null_function());
  EXPECT_TRUE(FrameControl::data(DataSubtype::kNull).is_null_function());
  EXPECT_FALSE(FrameControl::data(DataSubtype::kData).is_null_function());
  EXPECT_TRUE(FrameControl::data(DataSubtype::kQosData).is_qos_data());
  EXPECT_FALSE(FrameControl::data(DataSubtype::kData).is_qos_data());
}

// --- On-air sizes (standard-mandated) ------------------------------------------

TEST(FrameSizes, AckIs14Octets) {
  EXPECT_EQ(make_ack(kA).size_bytes(), 14u);
}

TEST(FrameSizes, CtsIs14Octets) {
  EXPECT_EQ(make_cts(kA, 44).size_bytes(), 14u);
}

TEST(FrameSizes, RtsIs20Octets) {
  EXPECT_EQ(make_rts(kA, kB, 100).size_bytes(), 20u);
}

TEST(FrameSizes, NullFunctionIs28Octets) {
  // 24-octet data header + 0 body + 4 FCS.
  EXPECT_EQ(make_null_function(kA, kB, 7).size_bytes(), 28u);
}

TEST(FrameSizes, QosDataAddsTwoOctets) {
  const Frame f = FrameBuilder()
                      .data(DataSubtype::kQosData)
                      .to_ds()
                      .addr1(kA)
                      .addr2(kB)
                      .addr3(kC)
                      .sequence(9)
                      .qos(5)
                      .body(Bytes{1, 2, 3})
                      .build();
  EXPECT_EQ(f.header_size(), 26u);
  EXPECT_EQ(f.size_bytes(), 26u + 3u + 4u);
}

TEST(FrameSizes, SizeMatchesTheEncodingForEveryFrameControl) {
  // Every 16-bit Frame Control word, reserved type and subtypes included:
  // a received frame of any shape re-serializes to exactly size_bytes().
  int mismatches = 0;
  for (std::uint32_t word = 0; word <= 0xFFFF; ++word) {
    Frame f;
    f.fc = FrameControl::unpack(static_cast<std::uint16_t>(word));
    f.body = Bytes{1, 2, 3};
    if (serialize(f).size() != f.size_bytes()) {
      if (++mismatches <= 5) ADD_FAILURE() << "FC word " << word;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// --- Address semantics -----------------------------------------------------------

TEST(AddressRules, ToDsDataFrame) {
  const Frame f = make_data_to_ds(kA /*bssid*/, kB /*sa*/, kC /*da*/,
                                  Bytes{}, 1);
  EXPECT_EQ(f.receiver(), kA);     // the AP
  EXPECT_EQ(f.transmitter(), kB);  // the source station
  EXPECT_EQ(f.addr3, kC);          // the destination behind the DS
}

TEST(AddressRules, FromDsDataFrame) {
  const Frame f = make_data_from_ds(kA /*bssid*/, kB /*sa*/, kC /*da*/,
                                    Bytes{}, 1);
  EXPECT_EQ(f.receiver(), kC);     // the destination station
  EXPECT_EQ(f.transmitter(), kA);  // the AP
  EXPECT_EQ(f.addr3, kB);          // the original source
}

TEST(AddressRules, AckHasOnlyReceiverAddress) {
  const Frame ack = make_ack(kA);
  EXPECT_FALSE(ack.has_addr2());
  EXPECT_FALSE(ack.has_addr3());
  EXPECT_FALSE(ack.has_sequence_control());
}

// --- Serialization round trips ------------------------------------------------------

Frame sample_frame(int which) {
  switch (which % 6) {
    case 0: return make_ack(kA);
    case 1: return make_rts(kA, kB, 123);
    case 2: return make_null_function(kA, kB, 77);
    case 3: return make_data_to_ds(kA, kB, kC, Bytes{1, 2, 3, 4, 5}, 99);
    case 4:
      return make_deauth(kA, kB, kB, ReasonCode::kClass3FrameFromNonassocSta,
                         3275);
    default: {
      Beacon b;
      b.timestamp_us = 123456789;
      b.beacon_interval = 100;
      b.elements.set_ssid("PrivateNet");
      b.elements.set_channel(6);
      b.elements.set_rsn_wpa2_psk();
      return make_beacon(kB, b, 42);
    }
  }
}

class SerializerRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SerializerRoundTrip, ExactRoundTripWithValidFcs) {
  const Frame original = sample_frame(GetParam());
  const Bytes raw = frames::serialize(original);
  EXPECT_EQ(raw.size(), original.size_bytes());

  const auto result = deserialize(raw);
  ASSERT_TRUE(result.frame.has_value());
  EXPECT_TRUE(result.fcs_ok);
  EXPECT_EQ(*result.frame, original);
}

TEST_P(SerializerRoundTrip, CorruptionBreaksFcs) {
  const Frame original = sample_frame(GetParam());
  Bytes raw = serialize(original);
  corrupt(raw, 1, 1234);
  const auto result = deserialize(raw);
  EXPECT_FALSE(result.fcs_ok);
}

INSTANTIATE_TEST_SUITE_P(AllFrameKinds, SerializerRoundTrip,
                         ::testing::Range(0, 6));

TEST(Serializer, RejectsTruncatedInput) {
  const Bytes tiny{0x01, 0x02, 0x03};
  const auto result = deserialize(tiny);
  EXPECT_FALSE(result.frame.has_value());
  EXPECT_FALSE(result.fcs_ok);
}

TEST(Serializer, DecodeIntoARecycledResultEqualsAFreshDecode) {
  // One result recycled across frames of every shape (4-address QoS data
  // down to an ACK, a damaged FCS, a truncated header): absent fields
  // must read as a fresh decode's, and fcs_valid must agree with it.
  const Frame wds = FrameBuilder()
                        .data(DataSubtype::kQosData)
                        .to_ds()
                        .from_ds()
                        .addr1(kA)
                        .addr2(kB)
                        .addr3(kC)
                        .addr4(kB)
                        .sequence(3)
                        .qos(2)
                        .body(Bytes(40, 7))
                        .build();
  Bytes damaged = serialize(make_null_function(kA, kB, 5));
  damaged[damaged.size() - 1] ^= 0x01;
  Bytes truncated = serialize(make_null_function(kA, kB, 6));
  truncated.resize(20);  // long enough to try, too short for addr3
  const std::vector<Bytes> inputs = {
      serialize(wds), serialize(make_ack(kC)), damaged,
      serialize(make_null_function(kC, kA, 9)), truncated, Bytes{1, 2, 3},
      serialize(wds)};
  DeserializeResult recycled;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    deserialize_into(inputs[i], recycled);
    EXPECT_EQ(recycled, deserialize(inputs[i])) << "input " << i;
    EXPECT_EQ(fcs_valid(inputs[i]), recycled.fcs_ok) << "input " << i;
  }
}

TEST(Serializer, BadFcsFrameStillParsesForSniffers) {
  // Monitor mode shows FCS-bad frames; the MAC just must not ACK them.
  Bytes raw = serialize(make_null_function(kA, kB, 5));
  raw[raw.size() - 1] ^= 0xFF;  // damage only the FCS
  const auto result = deserialize(raw);
  ASSERT_TRUE(result.frame.has_value());
  EXPECT_FALSE(result.fcs_ok);
  EXPECT_TRUE(result.frame->fc.is_null_function());
}

// --- Sequence control ------------------------------------------------------------------

TEST(SequenceControl, PackLayout) {
  const SequenceControl sc{.sequence = 0xABC, .fragment = 0x5};
  EXPECT_EQ(sc.pack(), 0xABC5);
  EXPECT_EQ(SequenceControl::unpack(0xABC5), sc);
}

// --- Information elements ----------------------------------------------------------------

TEST(InformationElements, SsidRoundTrip) {
  ElementList list;
  list.set_ssid("MyHomeWiFi");
  ByteWriter w;
  list.serialize(w);
  ByteReader r(w.view());
  const auto parsed = ElementList::deserialize(r);
  EXPECT_EQ(parsed.ssid(), "MyHomeWiFi");
}

TEST(InformationElements, TimRoundTripWithAids) {
  ElementList list;
  ElementList::Tim tim;
  tim.dtim_count = 2;
  tim.dtim_period = 3;
  tim.buffered_aids = {1, 7, 42};
  list.set_tim(tim);

  const auto parsed = list.tim();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dtim_count, 2);
  EXPECT_EQ(parsed->dtim_period, 3);
  EXPECT_EQ(parsed->buffered_aids, (std::vector<std::uint16_t>{1, 7, 42}));
}

TEST(InformationElements, RsnMarksWpa2) {
  ElementList list;
  EXPECT_FALSE(list.has_rsn());
  list.set_rsn_wpa2_psk();
  EXPECT_TRUE(list.has_rsn());
}

TEST(InformationElements, UnknownElementsSurviveRoundTrip) {
  ElementList list;
  list.add(221, Bytes{0xde, 0xad});  // vendor specific
  list.set_channel(11);
  ByteWriter w;
  list.serialize(w);
  ByteReader r(w.view());
  const auto parsed = ElementList::deserialize(r);
  EXPECT_EQ(parsed, list);
}

TEST(InformationElements, TruncatedElementThrows) {
  const Bytes bad{0x00, 0x10, 'a', 'b'};  // claims 16 octets, has 2
  ByteReader r(bad);
  EXPECT_THROW(ElementList::deserialize(r), BufferUnderflow);
}

// --- Management payloads ----------------------------------------------------------------

TEST(ManagementPayloads, BeaconRoundTrip) {
  Beacon b;
  b.timestamp_us = 987654321;
  b.beacon_interval = 102;
  b.capability.privacy = true;
  b.elements.set_ssid("net");
  const auto parsed = Beacon::from_body(b.to_body());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, b);
}

TEST(ManagementPayloads, DeauthCarriesReasonCode) {
  const Deauthentication d{ReasonCode::kClass3FrameFromNonassocSta};
  EXPECT_EQ(d.to_body(), (Bytes{0x07, 0x00}));  // little-endian reason 7
}

TEST(ManagementPayloads, AssociationRoundTrip) {
  AssociationRequest req;
  req.listen_interval = 5;
  req.elements.set_ssid("x");
  const auto preq = AssociationRequest::from_body(req.to_body());
  ASSERT_TRUE(preq.has_value());
  EXPECT_EQ(*preq, req);

  AssociationResponse resp;
  resp.status = 0;
  resp.aid = 7;
  const auto presp = AssociationResponse::from_body(resp.to_body());
  ASSERT_TRUE(presp.has_value());
  EXPECT_EQ(*presp, resp);
}

TEST(ManagementPayloads, MalformedBodiesRejected) {
  const Bytes one_byte{0x01};
  EXPECT_FALSE(Beacon::from_body(one_byte).has_value());
  EXPECT_FALSE(Authentication::from_body(one_byte).has_value());
}

// --- PS-Poll ---------------------------------------------------------------------------

TEST(PsPoll, AidEncodedInDurationField) {
  const Frame f = make_ps_poll(kA, kB, 42);
  EXPECT_EQ(f.duration_id & 0x3FFF, 42);
  EXPECT_TRUE(f.duration_id & 0xC000);  // the two top bits mark an AID
}

// --- CCMP header ------------------------------------------------------------------------

TEST(CcmpHeader, RoundTripPreservesPnAndKeyId) {
  CcmpHeader h{.packet_number = 0x0000AABBCCDDEEFF & 0x0000FFFFFFFFFFFF,
               .key_id = 2};
  ByteWriter w;
  h.serialize(w);
  ByteReader r(w.view());
  const auto parsed = CcmpHeader::deserialize(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->packet_number, h.packet_number);
  EXPECT_EQ(parsed->key_id, 2);
}

// --- FrameBuilder ------------------------------------------------------------------------

TEST(FrameBuilder, BuildsArbitraryFrames) {
  const Frame f = FrameBuilder()
                      .data(DataSubtype::kNull)
                      .to_ds()
                      .duration(44)
                      .addr1(kA)
                      .addr2(MacAddress::paper_fake_address())
                      .addr3(kA)
                      .sequence(1234)
                      .build();
  EXPECT_TRUE(f.fc.is_null_function());
  EXPECT_EQ(f.addr2, MacAddress::paper_fake_address());
  EXPECT_EQ(f.seq.sequence, 1234);
  // Scapy-style: nothing validated, frame serializes fine.
  EXPECT_EQ(serialize(f).size(), f.size_bytes());
}

TEST(FrameSummary, MatchesFigureVocabulary) {
  const Frame f = make_null_function(kA, MacAddress::paper_fake_address(), 12);
  EXPECT_EQ(f.summary(), "Null function (No data), SN=12, Flags=T");
}

// --- FrameTemplateCache -------------------------------------------------------

TEST(FrameTemplateCache, PatchedRendersAreByteIdenticalToSerialize) {
  // The whole contract: render() == serialize() for every frame, no
  // matter whether it was a miss, an in-place seq/retry patch, or a
  // copied patch. Walk sequence numbers and flip retry to force the
  // incremental-FCS path through both transitions.
  FrameTemplateCache cache;
  PpduPool pool;
  Frame f = make_null_function(kA, MacAddress::paper_fake_address(), 0);
  for (int i = 0; i < 300; ++i) {
    f.seq.sequence = (i * 37) & 0x0FFF;
    f.fc.retry = (i % 5) == 0;
    const PpduRef rendered = cache.render(f, pool);
    ASSERT_EQ(rendered.octets(), serialize(f)) << "iteration " << i;
  }
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().in_place_patches, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(FrameTemplateCache, SharedBuffersAreNeverMutated) {
  // A receiver still holding the previous PPDU must not see its bytes
  // change when the next frame is rendered: the patch has to land in a
  // fresh buffer.
  FrameTemplateCache cache;
  PpduPool pool;
  Frame f = make_null_function(kA, MacAddress::paper_fake_address(), 1);
  const PpduRef held = cache.render(f, pool);
  const Bytes snapshot = held.octets();

  f.seq.sequence = 2;
  const PpduRef next = cache.render(f, pool);
  EXPECT_EQ(held.octets(), snapshot);
  EXPECT_EQ(next.octets(), serialize(f));
  EXPECT_NE(&held.octets(), &next.octets());
  EXPECT_GT(cache.stats().copied_patches, 0u);
  EXPECT_GT(cache.stats().bytes_copied, 0u);
}

TEST(FrameTemplateCache, DistinctFrameShapesRenderCorrectlyAcrossSlots) {
  // More distinct shapes than the direct-mapped cache has entries:
  // collisions force re-renders, and every render must still match
  // serialize().
  FrameTemplateCache cache;
  PpduPool pool;
  for (int round = 0; round < 3; ++round) {
    for (std::uint8_t i = 0; i < 12; ++i) {
      const MacAddress ra{0x00, 0x11, 0x22, 0x33, 0x44, i};
      Frame rts = make_rts(ra, kB, 60);
      EXPECT_EQ(cache.render(rts, pool).octets(), serialize(rts));
      Frame null = make_null_function(ra, kB, std::uint16_t(round * 12 + i));
      EXPECT_EQ(cache.render(null, pool).octets(), serialize(null));
    }
  }
}

}  // namespace
}  // namespace politewifi::frames
