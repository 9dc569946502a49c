// Wire-format regression tests: byte-exact golden encodings of the scoped
// OF 1.0 frame (dpid + ofp frame) that the RPC, event codec and replication
// records carry, so changes that break compatibility fail loudly; and fuzz
// sweeps over every decoder in the system.
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>

#include "appvisor/rpc.hpp"
#include "controller/event_codec.hpp"
#include "helpers.hpp"
#include "openflow/wire10.hpp"

namespace legosdn {
namespace {

namespace wire10 = of::wire10;

std::string hex(std::span<const std::uint8_t> bytes) {
  std::ostringstream os;
  for (auto b : bytes) os << std::hex << std::setw(2) << std::setfill('0') << int(b);
  return os.str();
}

std::vector<std::uint8_t> scoped(const of::Message& msg) {
  auto bytes = wire10::encode_scoped(msg);
  EXPECT_TRUE(bytes.ok()) << bytes.error().to_string();
  return bytes.ok() ? bytes.value() : std::vector<std::uint8_t>{};
}

TEST(Golden, HelloFrame) {
  // dpid 0 (connection-scoped) | version=1 type=0 len=0x0008 xid=1
  EXPECT_EQ(hex(scoped({1, of::Hello{}})), "0000000000000000"
                                           "0100000800000001");
}

TEST(Golden, EchoRequestFrame) {
  EXPECT_EQ(hex(scoped({0x42, of::EchoRequest{0x0102030405060708ULL}})),
            "0000000000000000"
            "0102001000000042"
            "0102030405060708");
}

TEST(Golden, BarrierRequestFrame) {
  // The dpid the bare OF 1.0 frame cannot carry rides in the prefix.
  EXPECT_EQ(hex(scoped({7, of::BarrierRequest{DatapathId{0xAB}}})),
            "00000000000000ab"
            "0112000800000007");
}

TEST(Golden, FlowModAddFrame) {
  of::FlowMod mod;
  mod.dpid = DatapathId{2};
  mod.match = of::Match{}.with_tp_dst(80);
  mod.priority = 0x1234;
  mod.actions = of::output_to(PortNo{3});
  const auto bytes = scoped({0x10, mod});
  // Spot-check the envelope, then require decode-equality (the OF 1.0 body
  // layout itself is pinned by Wire10Golden.FlowModLayout).
  ASSERT_EQ(bytes.size(), wire10::kDpidLen + 80);
  EXPECT_EQ(hex(std::span(bytes).first(8)), "0000000000000002"); // dpid
  EXPECT_EQ(bytes[8], 0x01);  // version
  EXPECT_EQ(bytes[9], 14);    // OFPT_FLOW_MOD
  const std::uint16_t len = static_cast<std::uint16_t>((bytes[10] << 8) | bytes[11]);
  EXPECT_EQ(len, bytes.size() - wire10::kDpidLen);
  EXPECT_EQ(hex(std::span(bytes).subspan(12, 4)), "00000010"); // xid
  auto decoded = wire10::decode_scoped(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded.value().get_if<of::FlowMod>(), mod);
}

TEST(Golden, WireTagsAreStable) {
  // The type byte is the OF 1.0 ofp_type: wire ABI shared with switches.
  auto tag = [](of::MessageBody body) {
    return scoped({0, std::move(body)})[wire10::kDpidLen + 1];
  };
  EXPECT_EQ(tag(of::Hello{}), 0);
  EXPECT_EQ(tag(of::OfError{}), 1);
  EXPECT_EQ(tag(of::EchoRequest{}), 2);
  EXPECT_EQ(tag(of::EchoReply{}), 3);
  EXPECT_EQ(tag(of::FeaturesRequest{}), 5);
  EXPECT_EQ(tag(of::FeaturesReply{}), 6);
  EXPECT_EQ(tag(of::PacketIn{}), 10);
  EXPECT_EQ(tag(of::FlowRemoved{}), 11);
  EXPECT_EQ(tag(of::PortStatus{}), 12);
  EXPECT_EQ(tag(of::PacketOut{}), 13);
  EXPECT_EQ(tag(of::FlowMod{}), 14);
  EXPECT_EQ(tag(of::StatsRequest{}), 16);
  EXPECT_EQ(tag(of::StatsReply{}), 17);
  EXPECT_EQ(tag(of::BarrierRequest{}), 18);
  EXPECT_EQ(tag(of::BarrierReply{}), 19);
}

// ---------------------------------------------------------------------------
// Decoder fuzzing: no input may crash, hang, or overrun.
// ---------------------------------------------------------------------------

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, RandomBytesNeverCrashAnyDecoder) {
  Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::uint8_t> junk(rng.below(192));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    (void)wire10::decode_scoped(junk);
    (void)ctl::decode_event(junk);
    (void)appvisor::decode_frame(junk);
    (void)appvisor::decode_register(junk);
    (void)appvisor::decode_event_done(junk);
    (void)appvisor::decode_deliver(junk);
    std::size_t len = 0;
    if (wire10::peek_frame(junk, &len) == wire10::FrameStatus::kReady)
      (void)wire10::decode({junk.data(), len}, DatapathId{1});
  }
}

TEST_P(DecoderFuzz, BitFlippedValidFramesNeverCrash) {
  legosdn::test::MessageGen gen(GetParam());
  Rng rng(GetParam() ^ 0xF00D);
  for (int i = 0; i < 1500; ++i) {
    auto bytes = scoped(gen.random_message());
    // Flip a few random bits/bytes.
    for (int k = 0; k < 3; ++k) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    (void)wire10::decode_scoped(bytes);
  }
}

TEST_P(DecoderFuzz, TruncatedValidFramesAlwaysRejected) {
  legosdn::test::MessageGen gen(GetParam());
  for (int i = 0; i < 300; ++i) {
    const auto bytes = scoped(gen.random_message());
    for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
      std::vector<std::uint8_t> shortened(bytes.begin(),
                                          bytes.begin() + static_cast<long>(cut));
      EXPECT_FALSE(wire10::decode_scoped(shortened).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, ::testing::Values(101, 202, 303));

TEST(RpcFuzz, EventCodecSurvivesEmbeddedGarbage) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    // Valid tag byte followed by garbage payload.
    std::vector<std::uint8_t> frame{static_cast<std::uint8_t>(rng.below(5))};
    const std::size_t n = rng.below(64);
    for (std::size_t k = 0; k < n; ++k)
      frame.push_back(static_cast<std::uint8_t>(rng.below(256)));
    (void)ctl::decode_event(frame);
  }
}

} // namespace
} // namespace legosdn
