// OpenFlow 1.0 wire codec tests: spec-conformant golden bytes, round-trips
// through real OF1.0 frames (scoped by their dpid prefix), frame synthesis/
// parsing, the 16-bit frame-length limit, and fuzz.
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>

#include "helpers.hpp"
#include "openflow/wire10.hpp"

namespace legosdn::of::wire10 {
namespace {

using legosdn::test::MessageGen;

std::string hex(std::span<const std::uint8_t> bytes) {
  std::ostringstream os;
  for (auto b : bytes) os << std::hex << std::setw(2) << std::setfill('0') << int(b);
  return os.str();
}

TEST(Wire10Golden, HelloIsEightByteHeader) {
  auto bytes = encode({0x01020304, Hello{}});
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(hex(bytes.value()), "0100000801020304");
}

TEST(Wire10Golden, BarrierRequestHeaderOnly) {
  auto bytes = encode({0xAB, BarrierRequest{DatapathId{9}}});
  ASSERT_TRUE(bytes.ok());
  // version=01 type=18(0x12) len=0008 xid=000000ab — dpid is connection state.
  EXPECT_EQ(hex(bytes.value()), "01120008000000ab");
}

TEST(Wire10Golden, EchoRequestCarriesPayload) {
  auto bytes = encode({1, EchoRequest{0x1122334455667788ULL}});
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(hex(bytes.value()), "01020010000000011122334455667788");
}

TEST(Wire10Golden, FlowModLayout) {
  of::FlowMod mod;
  mod.dpid = DatapathId{1};
  mod.match = of::Match{}.with_tp_dst(80); // everything else wildcarded
  mod.priority = 0x8000;
  mod.actions = of::output_to(PortNo{2});
  auto bytes = encode({0, mod});
  ASSERT_TRUE(bytes.ok());
  const auto& b = bytes.value();
  // header(8) + match(40) + body(24) + one output action(8) = 80 bytes.
  ASSERT_EQ(b.size(), 80u);
  EXPECT_EQ(b[1], 14); // OFPT_FLOW_MOD
  // wildcards: all except TP_DST, with VLAN/PCP/TOS forced wild and both
  // nw prefixes at 32 bits: 0x0030_1f7f & ~TP_DST(0x80) ... compute:
  // in_port|dl_vlan|dl_src|dl_dst|dl_type|nw_proto|tp_src = 0x7F minus
  // tp_dst(0x80 not set), nw bits 32<<8 | 32<<14 = 0x2000 + 0x80000 ->
  // 0x2000|0x80000 = 0x082000... plus pcp(1<<20)+tos(1<<21)=0x300000.
  const std::uint32_t wc = (std::uint32_t{b[8]} << 24) | (std::uint32_t{b[9]} << 16) |
                           (std::uint32_t{b[10]} << 8) | b[11];
  EXPECT_EQ(wc, 0x0038207Fu);
  // Action at offset 72: type=0, len=8, port=2, max_len=0.
  EXPECT_EQ(hex(std::span(b).subspan(72, 8)), "0000000800020000");
}

TEST(Wire10Golden, PacketInSynthesizesRealTcpFrame) {
  of::PacketIn pin;
  pin.dpid = DatapathId{3};
  pin.buffer_id = 7;
  pin.in_port = PortNo{2};
  pin.packet = legosdn::test::packet_between(MacAddress::from_uint64(0xA),
                                             MacAddress::from_uint64(0xB), 80, 42);
  pin.packet.hdr.ip_src = IpV4::from_octets(10, 0, 0, 1);
  pin.packet.hdr.ip_dst = IpV4::from_octets(10, 0, 0, 2);
  auto bytes = encode({9, pin});
  ASSERT_TRUE(bytes.ok());
  const auto& b = bytes.value();
  EXPECT_EQ(b[1], 10); // OFPT_PACKET_IN
  // Frame starts at offset 18: Ethernet dst comes first on the wire.
  EXPECT_EQ(hex(std::span(b).subspan(18, 6)), "00000000000b"); // eth_dst
  EXPECT_EQ(hex(std::span(b).subspan(24, 6)), "00000000000a"); // eth_src
  EXPECT_EQ(hex(std::span(b).subspan(30, 2)), "0800");         // ethertype
  // IPv4 header checksum must validate (sum to zero over the header).
  std::span<const std::uint8_t> ip(b.data() + 32, 20);
  EXPECT_EQ(internet_checksum(ip), 0);
}

TEST(Wire10, FrameSynthesisRoundTrip) {
  MessageGen gen(11);
  for (int i = 0; i < 300; ++i) {
    of::Packet pkt;
    pkt.hdr = gen.random_header();
    pkt.hdr.eth_type = of::kEthTypeIpv4;
    pkt.hdr.ip_proto = (i % 3 == 0) ? of::kIpProtoTcp
                       : (i % 3 == 1) ? of::kIpProtoUdp
                                      : of::kIpProtoIcmp;
    pkt.size_bytes = 64 + static_cast<std::uint32_t>(i);
    pkt.trace_tag = gen.rng().next();
    auto frame = synthesize_frame(pkt);
    auto parsed = parse_frame(frame, static_cast<std::uint16_t>(pkt.size_bytes));
    ASSERT_TRUE(parsed.ok());
    // Non-TCP/UDP frames carry their ports after the trace tag.
    EXPECT_EQ(parsed.value().hdr, pkt.hdr) << i;
    EXPECT_EQ(parsed.value().trace_tag, pkt.trace_tag) << i;
    EXPECT_EQ(parsed.value().size_bytes, pkt.size_bytes) << i;
  }
}

TEST(Wire10, NonIpFrameRoundTrip) {
  of::Packet pkt;
  pkt.hdr.eth_src = MacAddress::from_uint64(1);
  pkt.hdr.eth_dst = MacAddress::from_uint64(2);
  pkt.hdr.eth_type = of::kEthTypeArp;
  pkt.hdr.ip_src = IpV4{};
  pkt.hdr.ip_dst = IpV4{};
  pkt.hdr.ip_proto = 0;
  pkt.hdr.tp_src = 0;
  pkt.hdr.tp_dst = 0;
  pkt.trace_tag = 0xCAFEBABE;
  pkt.size_bytes = 22;
  auto frame = synthesize_frame(pkt);
  auto parsed = parse_frame(frame, 22);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), pkt);
}

TEST(Wire10, PacketsKeepL3L4FieldsAndSizeAcrossPacketInAndOut) {
  // A LinkDiscovery-style probe: non-IP, its origin in ip_src/ip_dst/tp_src.
  of::Packet probe;
  probe.hdr.eth_type = 0x88CC;
  probe.hdr.ip_src = IpV4{0x1234};
  probe.hdr.ip_dst = IpV4{0};
  probe.hdr.tp_src = 3;
  probe.size_bytes = 60;
  // An IPv4 frame that is neither TCP nor UDP keeps its ports too.
  of::Packet icmp = legosdn::test::packet_between(MacAddress::from_uint64(1),
                                                  MacAddress::from_uint64(2), 80);
  icmp.hdr.ip_proto = of::kIpProtoIcmp;
  icmp.hdr.tp_src = 8;
  for (const of::Packet& pkt : {probe, icmp}) {
    PacketOut po;
    po.dpid = DatapathId{7};
    po.actions = of::output_to(PortNo{2});
    po.packet = pkt;
    PacketIn pin;
    pin.dpid = DatapathId{7};
    pin.in_port = PortNo{1};
    pin.packet = pkt;
    for (const Message& msg : {Message{1, po}, Message{2, pin}}) {
      auto decoded = decode_scoped(encode_scoped(msg).value());
      ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
      EXPECT_EQ(decoded.value(), msg) << of::type_name(msg.body);
    }
  }
}

TEST(Wire10, EncodedSizeMatchesEncodeForFlowMods) {
  // encoded_size() is the arithmetic twin of encode() that NetLog's
  // undo-byte accounting uses on the hot path; any drift between the two
  // silently corrupts undo_bytes_peak. Sweep random mods plus one mod
  // carrying every action kind.
  MessageGen gen(77);
  for (int i = 0; i < 200; ++i) {
    const FlowMod mod = gen.random_flow_mod(64);
    EXPECT_EQ(encoded_size(mod), encode({std::uint32_t(i), mod}).value().size());
  }
  FlowMod all;
  all.dpid = DatapathId{3};
  all.match = gen.random_match();
  all.actions = {
      ActionOutput{PortNo{7}},
      ActionSetEthSrc{MacAddress::from_uint64(0xAAA)},
      ActionSetEthDst{MacAddress::from_uint64(0xBBB)},
      ActionSetIpSrc{IpV4::from_octets(1, 2, 3, 4)},
      ActionSetIpDst{IpV4::from_octets(5, 6, 7, 8)},
      ActionSetTpSrc{1234},
      ActionSetTpDst{80},
  };
  EXPECT_EQ(encoded_size(all), encode({9, all}).value().size());
  all.actions.clear();
  EXPECT_EQ(encoded_size(all), encode({9, all}).value().size());
}

TEST(Wire10, FramesPastSixteenBitLengthAreRefusedNotWrapped) {
  // ofp_packet_out without actions is 16 bytes before its data.
  PacketOut po;
  po.dpid = DatapathId{1};
  po.packet.size_bytes = 65535 - 16;
  auto largest = encode({1, po});
  ASSERT_TRUE(largest.ok()) << largest.error().to_string();
  ASSERT_EQ(largest.value().size(), 65535u);
  std::size_t total = 0;
  EXPECT_EQ(peek_frame(largest.value(), &total), FrameStatus::kReady);
  auto back = decode(largest.value(), DatapathId{1});
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value().get_if<PacketOut>()->packet.size_bytes, 65535u - 16);

  po.packet.size_bytes += 1; // a 65,536-byte frame
  auto over = encode({1, po});
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error().code, Error::Code::kUnsupported);
  EXPECT_FALSE(encode_scoped({1, po}).ok());
  po.packet.size_bytes = 0xFFFFFFFF; // refused without materializing it
  EXPECT_FALSE(encode({1, po}).ok());
}

TEST(Wire10, PacketInSizePastSixteenBitTotalLenIsRefusedNotWrapped) {
  PacketIn pin;
  pin.dpid = DatapathId{1};
  pin.packet.size_bytes = 65535;
  auto largest = encode({1, pin});
  ASSERT_TRUE(largest.ok()) << largest.error().to_string();
  auto back = decode(largest.value(), DatapathId{1});
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value().get_if<PacketIn>()->packet.size_bytes, 65535u);

  pin.packet.size_bytes = 65536; // would go out as total_len 0
  auto over = encode({1, pin});
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error().code, Error::Code::kUnsupported);
  EXPECT_FALSE(encode_scoped({1, pin}).ok());
}

/// Canonicalize fields OF 1.0 genuinely cannot carry, so round-trip
/// comparisons test exactly what the wire can represent.
Message canonicalize(Message msg) {
  // Wildcarded IP fields carry no prefix on the wire (and /0 is semantically
  // a full wildcard): normalize both to the form decode() produces.
  auto fix_match = [](Match& m) {
    if (m.wildcarded(kWcIpSrc) || m.ip_src_prefix == 0) {
      m.wildcards |= kWcIpSrc;
      m.ip_src_prefix = 32;
    }
    if (m.wildcarded(kWcIpDst) || m.ip_dst_prefix == 0) {
      m.wildcards |= kWcIpDst;
      m.ip_dst_prefix = 32;
    }
  };
  std::visit(
      [&](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, FlowMod> || std::is_same_v<T, FlowRemoved> ||
                      std::is_same_v<T, StatsRequest>) {
          fix_match(m.match);
        }
        if constexpr (std::is_same_v<T, StatsRequest>) {
          // The wire carries only the active section of the stats union.
          if (m.kind == StatsKind::kPort) m.match = Match{};
        }
        if constexpr (std::is_same_v<T, StatsReply>) {
          for (auto& f : m.flows) fix_match(f.match);
          switch (m.kind) {
            case StatsKind::kFlow:
              m.ports.clear();
              m.aggregate = {};
              break;
            case StatsKind::kAggregate:
              m.flows.clear();
              m.ports.clear();
              break;
            case StatsKind::kPort:
              m.flows.clear();
              m.aggregate = {};
              break;
          }
        }
        if constexpr (std::is_same_v<T, Hello>) {
          m.version = 1;
        } else if constexpr (std::is_same_v<T, PacketIn>) {
          m.packet.size_bytes &= 0xFFFF; // total_len is u16 on the wire
        } else if constexpr (std::is_same_v<T, PacketOut>) {
          m.buffer_id = PacketIn::kNoBuffer; // data only travels when unbuffered
        } else if constexpr (std::is_same_v<T, FeaturesReply> ||
                             std::is_same_v<T, PortStatus>) {
          auto fix_port = [](PortDesc& p) {
            if (p.name.size() > 15) p.name.resize(15);
          };
          if constexpr (std::is_same_v<T, FeaturesReply>) {
            for (auto& p : m.ports) fix_port(p);
          } else {
            fix_port(m.desc);
          }
        }
      },
      msg.body);
  return msg;
}

class Wire10RoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Wire10RoundTrip, RandomMessagesSurviveRealOf10Encoding) {
  MessageGen gen(GetParam());
  int done = 0;
  for (int i = 0; i < 600; ++i) {
    Message msg = canonicalize(gen.random_message());
    // The scoped frame's prefix carries the dpid a connection would know.
    auto bytes = encode_scoped(msg);
    ASSERT_TRUE(bytes.ok()) << of::type_name(msg.body);
    auto decoded = decode_scoped(bytes.value());
    ASSERT_TRUE(decoded.ok())
        << of::type_name(msg.body) << ": " << decoded.error().to_string();
    EXPECT_EQ(decoded.value(), msg)
        << "seed=" << GetParam() << " type=" << of::type_name(msg.body);
    ++done;
  }
  EXPECT_EQ(done, 600);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Wire10RoundTrip, ::testing::Values(7, 21, 63));

TEST(Wire10, FrameLengthPeeking) {
  auto bytes = encode({1, EchoRequest{5}});
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(frame_length(bytes.value()), bytes.value().size());
  EXPECT_EQ(frame_length(std::vector<std::uint8_t>{1, 2}), 0u);
}

TEST(Wire10, RejectsWrongVersionAndBadLength) {
  auto bytes = encode({1, Hello{}});
  ASSERT_TRUE(bytes.ok());
  auto frame = bytes.value();
  frame[0] = 0x04; // OF 1.3
  EXPECT_FALSE(decode(frame, DatapathId{1}).ok());
  frame[0] = 0x01;
  frame.push_back(0);
  EXPECT_FALSE(decode(frame, DatapathId{1}).ok());
}

TEST(Wire10, FuzzNeverCrashes) {
  Rng rng(77);
  for (int i = 0; i < 4000; ++i) {
    std::vector<std::uint8_t> junk(rng.below(160));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    (void)decode(junk, DatapathId{1});
    (void)parse_frame(junk, 0);
  }
}

TEST(Wire10, BitFlipFuzzOnValidFrames) {
  MessageGen gen(31337);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    Message msg = canonicalize(gen.random_message());
    auto bytes = encode(msg);
    ASSERT_TRUE(bytes.ok());
    auto frame = bytes.value();
    for (int k = 0; k < 4; ++k)
      frame[rng.below(frame.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    (void)decode(frame, DatapathId{1}); // must not crash/hang
  }
}

TEST(Wire10, PeekFrameContract) {
  const auto frame = encode({9, EchoRequest{0xDEAD}}).value(); // 16 bytes
  std::size_t total = 0;

  // Too short to even read the length field.
  EXPECT_EQ(peek_frame({frame.data(), 0}, &total), FrameStatus::kNeedMore);
  EXPECT_EQ(peek_frame({frame.data(), 3}, &total), FrameStatus::kNeedMore);
  // Header present, body still in flight.
  EXPECT_EQ(peek_frame({frame.data(), kHeaderLen}, &total), FrameStatus::kNeedMore);
  EXPECT_EQ(peek_frame({frame.data(), frame.size() - 1}, &total),
            FrameStatus::kNeedMore);
  // Complete frame (with trailing bytes from the next one).
  auto two = frame;
  two.insert(two.end(), frame.begin(), frame.end());
  EXPECT_EQ(peek_frame(two, &total), FrameStatus::kReady);
  EXPECT_EQ(total, frame.size());

  // Hostile length fields: below the header size, or above the cap.
  auto evil = frame;
  evil[2] = 0;
  evil[3] = 4;
  EXPECT_EQ(peek_frame(evil, &total), FrameStatus::kBad);
  evil[3] = kHeaderLen - 1;
  EXPECT_EQ(peek_frame(evil, &total), FrameStatus::kBad);
  EXPECT_EQ(peek_frame(frame, &total, /*max_frame=*/frame.size() - 1),
            FrameStatus::kBad);
}

TEST(Wire10, LengthFieldFuzzClassifiesEveryMutation) {
  MessageGen gen(2024);
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    auto bytes = encode(canonicalize(gen.random_message()));
    ASSERT_TRUE(bytes.ok());
    auto frame = bytes.value();
    const auto evil = static_cast<std::uint16_t>(rng.below(0x10000));
    frame[2] = static_cast<std::uint8_t>(evil >> 8);
    frame[3] = static_cast<std::uint8_t>(evil & 0xFF);
    std::size_t total = 0;
    const auto st = peek_frame(frame, &total);
    if (evil < kHeaderLen) {
      EXPECT_EQ(st, FrameStatus::kBad);
    } else if (evil > frame.size()) {
      // Claims more than buffered: reassembly keeps waiting, never over-reads.
      EXPECT_EQ(st, FrameStatus::kNeedMore);
    } else {
      EXPECT_EQ(st, FrameStatus::kReady);
      EXPECT_EQ(total, evil);
      // The framed slice decodes or errors — no crash, no out-of-slice read.
      (void)decode(std::span<const std::uint8_t>(frame.data(), evil),
                   DatapathId{1});
    }
  }
}

TEST(Wire10, TruncatedPrefixDecodeFails) {
  MessageGen gen(5150);
  for (int i = 0; i < 200; ++i) {
    auto bytes = encode(canonicalize(gen.random_message()));
    ASSERT_TRUE(bytes.ok());
    const auto& frame = bytes.value();
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      EXPECT_FALSE(decode({frame.data(), cut}, DatapathId{1}).ok())
          << "prefix of " << cut << "/" << frame.size() << " bytes decoded";
    }
  }
}

TEST(Wire10, StreamReassemblyRandomChunks) {
  // A byte stream of whole frames, delivered in random-sized chunks, must
  // reassemble into exactly the original frames — the invariant the
  // southbound receive path is built on.
  MessageGen gen(808);
  Rng rng(606);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::uint8_t> stream;
    const std::size_t n = rng.below(8) + 2;
    for (std::size_t i = 0; i < n; ++i) {
      auto bytes = encode(canonicalize(gen.random_message()));
      ASSERT_TRUE(bytes.ok());
      stream.insert(stream.end(), bytes.value().begin(), bytes.value().end());
      frames.push_back(std::move(bytes).value());
    }
    std::vector<std::uint8_t> acc;
    std::size_t recovered = 0;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t chunk = std::min(rng.below(40) + 1, stream.size() - off);
      acc.insert(acc.end(), stream.begin() + static_cast<long>(off),
                 stream.begin() + static_cast<long>(off + chunk));
      off += chunk;
      for (;;) {
        std::size_t len = 0;
        const auto st = peek_frame(acc, &len);
        ASSERT_NE(st, FrameStatus::kBad);
        if (st != FrameStatus::kReady) break;
        ASSERT_LT(recovered, frames.size());
        EXPECT_EQ(std::vector<std::uint8_t>(acc.begin(),
                                            acc.begin() + static_cast<long>(len)),
                  frames[recovered]);
        acc.erase(acc.begin(), acc.begin() + static_cast<long>(len));
        recovered += 1;
      }
    }
    EXPECT_EQ(recovered, frames.size());
    EXPECT_TRUE(acc.empty());
  }
}

TEST(Wire10, InternetChecksumKnownVectors) {
  // RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::vector<std::uint8_t> data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
  // Checksum over data + its checksum is zero.
  std::vector<std::uint8_t> with_sum = data;
  with_sum.push_back(0x22);
  with_sum.push_back(0x0d);
  EXPECT_EQ(internet_checksum(with_sum), 0);
}

} // namespace
} // namespace legosdn::of::wire10
