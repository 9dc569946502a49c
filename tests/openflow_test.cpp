// OpenFlow substrate tests: match semantics, actions, and the scoped OF 1.0
// frame (dpid + ofp frame) that carries messages between processes:
// round-trips and malformed-input handling.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "openflow/wire10.hpp"

namespace legosdn::of {
namespace {

using legosdn::test::MessageGen;

PacketHeader sample_header() {
  PacketHeader h;
  h.eth_src = MacAddress::from_uint64(0x111111);
  h.eth_dst = MacAddress::from_uint64(0x222222);
  h.eth_type = kEthTypeIpv4;
  h.ip_src = IpV4::from_octets(10, 0, 0, 1);
  h.ip_dst = IpV4::from_octets(10, 0, 0, 2);
  h.ip_proto = kIpProtoTcp;
  h.tp_src = 1000;
  h.tp_dst = 80;
  return h;
}

/// Round-trips msg through the scoped OF 1.0 frame.
Result<Message> round_trip(const Message& msg) {
  auto bytes = wire10::encode_scoped(msg);
  if (!bytes) return bytes.error();
  return wire10::decode_scoped(bytes.value());
}

FlowMod flow_mod_with(ActionList actions) {
  FlowMod mod;
  mod.dpid = DatapathId{3};
  mod.actions = std::move(actions);
  return mod;
}

TEST(Match, AnyMatchesEverything) {
  const Match m = Match::any();
  EXPECT_TRUE(m.matches(PortNo{1}, sample_header()));
  PacketHeader other = sample_header();
  other.eth_type = kEthTypeArp;
  EXPECT_TRUE(m.matches(PortNo{7}, other));
}

TEST(Match, ExactMatchesOnlyIdenticalHeader) {
  const PacketHeader h = sample_header();
  const Match m = Match::exact(PortNo{3}, h);
  EXPECT_TRUE(m.matches(PortNo{3}, h));
  EXPECT_FALSE(m.matches(PortNo{4}, h));
  PacketHeader changed = h;
  changed.tp_dst = 81;
  EXPECT_FALSE(m.matches(PortNo{3}, changed));
}

TEST(Match, SingleFieldConstraints) {
  const PacketHeader h = sample_header();
  EXPECT_TRUE(Match{}.with_eth_dst(h.eth_dst).matches(PortNo{1}, h));
  EXPECT_FALSE(
      Match{}.with_eth_dst(MacAddress::from_uint64(0x999)).matches(PortNo{1}, h));
  EXPECT_TRUE(Match{}.with_tp_dst(80).matches(PortNo{1}, h));
  EXPECT_FALSE(Match{}.with_tp_dst(443).matches(PortNo{1}, h));
}

TEST(Match, IpPrefixMatching) {
  PacketHeader h = sample_header();
  h.ip_dst = IpV4::from_octets(192, 168, 4, 77);
  EXPECT_TRUE(Match{}
                  .with_ip_dst(IpV4::from_octets(192, 168, 0, 0), 16)
                  .matches(PortNo{1}, h));
  EXPECT_FALSE(Match{}
                   .with_ip_dst(IpV4::from_octets(192, 169, 0, 0), 16)
                   .matches(PortNo{1}, h));
  EXPECT_TRUE(Match{}
                  .with_ip_dst(IpV4::from_octets(0, 0, 0, 0), 0)
                  .matches(PortNo{1}, h)); // /0 covers all
  EXPECT_FALSE(Match{}
                   .with_ip_dst(IpV4::from_octets(192, 168, 4, 78), 32)
                   .matches(PortNo{1}, h));
}

TEST(Match, SubsumesBasics) {
  const Match any = Match::any();
  const Match dst = Match{}.with_eth_dst(MacAddress::from_uint64(1));
  const Match dst_and_port = Match{}
                                 .with_eth_dst(MacAddress::from_uint64(1))
                                 .with_tp_dst(80);
  EXPECT_TRUE(any.subsumes(dst));
  EXPECT_TRUE(any.subsumes(any));
  EXPECT_FALSE(dst.subsumes(any));
  EXPECT_TRUE(dst.subsumes(dst_and_port));
  EXPECT_FALSE(dst_and_port.subsumes(dst));
  const Match other_dst = Match{}.with_eth_dst(MacAddress::from_uint64(2));
  EXPECT_FALSE(dst.subsumes(other_dst));
}

TEST(Match, SubsumesWithPrefixes) {
  const Match wide = Match{}.with_ip_dst(IpV4::from_octets(10, 0, 0, 0), 8);
  const Match narrow = Match{}.with_ip_dst(IpV4::from_octets(10, 1, 0, 0), 16);
  EXPECT_TRUE(wide.subsumes(narrow));
  EXPECT_FALSE(narrow.subsumes(wide));
  const Match outside = Match{}.with_ip_dst(IpV4::from_octets(11, 0, 0, 0), 16);
  EXPECT_FALSE(wide.subsumes(outside));
}

// Property: if a subsumes b, every header matching b also matches a.
TEST(MatchProperty, SubsumptionImpliesMatchCoverage) {
  MessageGen gen(777);
  int checked = 0;
  for (int i = 0; i < 3000; ++i) {
    const Match a = gen.random_match();
    // Half the time derive b by narrowing a (guaranteed-subsumed candidates);
    // otherwise draw independently so false positives get probed too.
    Match b = (i % 2 == 0) ? a : gen.random_match();
    if (i % 2 == 0) {
      if (b.wildcarded(kWcTpDst)) b.with_tp_dst(80);
      if (b.wildcarded(kWcEthDst)) b.with_eth_dst(MacAddress::from_uint64(7));
    }
    if (!a.subsumes(b)) continue;
    // Synthesize headers that b accepts and verify a accepts them too.
    for (int j = 0; j < 5; ++j) {
      PacketHeader h = gen.random_header();
      // Force header to satisfy b's constrained fields.
      if (!b.wildcarded(kWcEthSrc)) h.eth_src = b.eth_src;
      if (!b.wildcarded(kWcEthDst)) h.eth_dst = b.eth_dst;
      if (!b.wildcarded(kWcEthType)) h.eth_type = b.eth_type;
      if (!b.wildcarded(kWcIpSrc)) h.ip_src = b.ip_src;
      if (!b.wildcarded(kWcIpDst)) h.ip_dst = b.ip_dst;
      if (!b.wildcarded(kWcIpProto)) h.ip_proto = b.ip_proto;
      if (!b.wildcarded(kWcTpSrc)) h.tp_src = b.tp_src;
      if (!b.wildcarded(kWcTpDst)) h.tp_dst = b.tp_dst;
      const PortNo port = b.wildcarded(kWcInPort) ? PortNo{9} : b.in_port;
      if (b.matches(port, h)) {
        EXPECT_TRUE(a.matches(port, h))
            << "a=" << a.to_string() << " b=" << b.to_string();
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100); // the sweep actually exercised the property
}

TEST(Match, EncodeDecodeRoundTrip) {
  // The OF 1.0 match is the only decoded form of a Match. A wildcarded or
  // /0 IP field comes back as the wire's canonical full wildcard.
  MessageGen gen(31);
  for (int i = 0; i < 200; ++i) {
    FlowMod mod;
    mod.match = gen.random_match();
    auto decoded = round_trip({1, mod});
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    Match want = mod.match;
    if (want.wildcarded(kWcIpSrc) || want.ip_src_prefix == 0) {
      want.wildcards |= kWcIpSrc;
      want.ip_src_prefix = 32;
    }
    if (want.wildcarded(kWcIpDst) || want.ip_dst_prefix == 0) {
      want.wildcards |= kWcIpDst;
      want.ip_dst_prefix = 32;
    }
    EXPECT_EQ(decoded.value().get_if<FlowMod>()->match, want);
  }
}

TEST(Actions, RoundTripAllKinds) {
  const ActionList list{
      ActionOutput{PortNo{7}},
      ActionSetEthSrc{MacAddress::from_uint64(0xAAA)},
      ActionSetEthDst{MacAddress::from_uint64(0xBBB)},
      ActionSetIpSrc{IpV4::from_octets(1, 2, 3, 4)},
      ActionSetIpDst{IpV4::from_octets(5, 6, 7, 8)},
      ActionSetTpSrc{1234},
      ActionSetTpDst{80},
  };
  auto decoded = round_trip({1, flow_mod_with(list)});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().get_if<FlowMod>()->actions, list);
}

TEST(Actions, EmptyListIsDrop) {
  EXPECT_EQ(to_string(ActionList{}), "[drop]");
  auto decoded = round_trip({1, flow_mod_with({})});
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().get_if<FlowMod>()->actions.empty());
}

TEST(Codec, HeaderFields) {
  // Scoped frame: u64 dpid, then the ofp_header (version, type, length, xid).
  const Message msg{0x12345678, BarrierRequest{DatapathId{0xAB}}};
  const auto bytes = wire10::encode_scoped(msg).value();
  ASSERT_EQ(bytes.size(), wire10::kDpidLen + wire10::kHeaderLen);
  ByteReader r(bytes);
  EXPECT_EQ(r.u64(), 0xABu);
  EXPECT_EQ(r.u8(), wire10::kVersion);
  EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(wire10::OfpType::kBarrierRequest));
  EXPECT_EQ(r.u16(), wire10::kHeaderLen);
  EXPECT_EQ(r.u32(), 0x12345678u);
  auto decoded = wire10::decode_scoped(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), msg);
}

TEST(Codec, RejectsBadVersion) {
  auto bytes = wire10::encode_scoped({1, Hello{}}).value();
  bytes[wire10::kDpidLen] = 9;
  EXPECT_FALSE(wire10::decode_scoped(bytes).ok());
}

TEST(Codec, RejectsLengthMismatch) {
  auto bytes = wire10::encode_scoped({1, EchoRequest{7}}).value();
  bytes.push_back(0); // trailing garbage breaks the declared length
  EXPECT_FALSE(wire10::decode_scoped(bytes).ok());
}

TEST(Codec, RejectsTruncatedBody) {
  const auto bytes = wire10::encode_scoped({1, FlowMod{}}).value();
  const std::size_t frame_start = wire10::kDpidLen;
  for (std::size_t cut = frame_start + wire10::kHeaderLen; cut + 1 < bytes.size();
       cut += 7) {
    std::vector<std::uint8_t> shortened(bytes.begin(),
                                        bytes.begin() + static_cast<long>(cut));
    // fix up length so only the body truncation is at fault
    const std::size_t len = cut - frame_start;
    shortened[frame_start + 2] = static_cast<std::uint8_t>(len >> 8);
    shortened[frame_start + 3] = static_cast<std::uint8_t>(len);
    EXPECT_FALSE(wire10::decode_scoped(shortened).ok()) << "cut=" << cut;
  }
}

TEST(Codec, DecodeNeverCrashesOnRandomBytes) {
  Rng rng(4242);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.below(256));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    (void)wire10::decode_scoped(junk); // must not crash or hang
  }
}

TEST(Messages, TypeNames) {
  EXPECT_EQ(type_name(MessageBody{Hello{}}), "hello");
  EXPECT_EQ(type_name(MessageBody{FlowMod{}}), "flow-mod");
  EXPECT_EQ(type_name(MessageBody{PacketIn{}}), "packet-in");
  EXPECT_EQ(type_name(MessageBody{BarrierReply{}}), "barrier-reply");
}

TEST(Messages, StateChangingClassification) {
  EXPECT_TRUE(is_state_changing(MessageBody{FlowMod{}}));
  EXPECT_FALSE(is_state_changing(MessageBody{PacketOut{}}));
  EXPECT_FALSE(is_state_changing(MessageBody{StatsRequest{}}));
  EXPECT_FALSE(is_state_changing(MessageBody{Hello{}}));
}

} // namespace
} // namespace legosdn::of
