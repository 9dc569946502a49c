// OpenFlow 1.0 wire codec: the one binary form of a Message.
//
// Encodes/decodes the Message structs in the actual OpenFlow 1.0 format
// (openflow.h, wire version 0x01): ofp_header, the 40-byte ofp_match,
// ofp_flow_mod, ofp_packet_in/out with genuine Ethernet/IPv4/TCP(UDP)
// frames as payload, ofp_phy_port, flow/port/aggregate statistics, and so
// on — so captures produced here are readable by standard OpenFlow tooling
// and vice versa.
//
// Two framings share it. A switch connection carries bare frames (encode/
// decode): OpenFlow scopes the datapath id by connection. Channels that
// carry messages for many switches — the AppVisor RPC, the event codec,
// replication records, diversity voting — use the scoped frame
// (encode_scoped/decode_scoped): a u64 dpid followed by the same frame.
//
// Representability notes:
//  - VLAN fields, TOS and port config/state bits have no internal
//    counterpart; they encode as wildcarded/zero and decode to defaults.
//  - Packet payloads are synthesized frames: headers are real; the packet's
//    trace_tag rides in the TCP seq/ack fields (seq = high word, ack = low),
//    in the UDP body, or as the first 8 body bytes of any other frame,
//    followed there by the L3/L4 fields the headers cannot hold. size_bytes
//    rides in ofp_packet_in.total_len; an unbuffered packet-out pads its
//    frame with zeros to size_bytes. Internal round-trips are lossless
//    while remaining valid frames for external tools.
//  - A frame longer than kMaxFrameLen is refused (kUnsupported), never
//    truncated: ofp_header.length is 16 bits. So is a packet-in whose
//    size_bytes exceeds the 16-bit total_len.
#pragma once

#include <span>
#include <vector>

#include "common/result.hpp"
#include "openflow/messages.hpp"

namespace legosdn::of::wire10 {

constexpr std::uint8_t kVersion = 0x01;
constexpr std::size_t kHeaderLen = 8;
constexpr std::size_t kMatchLen = 40;
constexpr std::size_t kPhyPortLen = 48;
/// Largest frame a peer may send: ofp_header.length is 16 bits, so anything
/// on the wire fits; connection layers may impose a tighter cap.
constexpr std::size_t kMaxFrameLen = 0xFFFF;

/// ofp_type values (OpenFlow 1.0 §5.1).
enum class OfpType : std::uint8_t {
  kHello = 0,
  kError = 1,
  kEchoRequest = 2,
  kEchoReply = 3,
  kVendor = 4,
  kFeaturesRequest = 5,
  kFeaturesReply = 6,
  kGetConfigRequest = 7,
  kGetConfigReply = 8,
  kSetConfig = 9,
  kPacketIn = 10,
  kFlowRemoved = 11,
  kPortStatus = 12,
  kPacketOut = 13,
  kFlowMod = 14,
  kPortMod = 15,
  kStatsRequest = 16,
  kStatsReply = 17,
  kBarrierRequest = 18,
  kBarrierReply = 19,
};

/// Encode one message as OpenFlow 1.0 bytes.
///
/// Messages that carry a datapath id (flow-mod, packet-in, ...) lose it on
/// the wire — real OpenFlow scopes messages by connection. encode() appends
/// no side channel; decode() therefore takes the connection's dpid.
Result<std::vector<std::uint8_t>> encode(const Message& msg);

/// Decode one OpenFlow 1.0 message. `conn_dpid` identifies the switch this
/// connection belongs to (fills the dpid fields the wire cannot carry).
Result<Message> decode(std::span<const std::uint8_t> frame, DatapathId conn_dpid);

/// Length of the scoped frame's dpid prefix.
constexpr std::size_t kDpidLen = 8;

/// Encode one message as a scoped frame: the u64 dpid_of(msg.body) (0 for
/// connection-scoped messages), then the unchanged OpenFlow 1.0 frame.
Result<std::vector<std::uint8_t>> encode_scoped(const Message& msg);

/// Decode a scoped frame; the prefix stands in for the connection's dpid.
Result<Message> decode_scoped(std::span<const std::uint8_t> frame);

/// encode({xid, mod}).size() computed without materializing the frame.
/// NetLog sizes every recorded undo op on the flow-mod hot path.
std::size_t encoded_size(const FlowMod& mod);

/// Peek at a buffer: returns the total length of the first frame if the
/// header is complete, 0 otherwise. For stream reassembly.
///
/// NOTE: this trusts the peer's length field. Stream reassemblers must use
/// peek_frame() instead — a length below sizeof(ofp_header) would otherwise
/// wedge or mis-frame the byte stream forever.
std::size_t frame_length(std::span<const std::uint8_t> buffer);

/// Stream-reassembly verdict for the bytes at the head of a receive buffer.
enum class FrameStatus : std::uint8_t {
  kNeedMore, ///< length field (or body) not fully buffered yet
  kReady,    ///< *total_len bytes form one complete frame
  kBad,      ///< malformed: length < sizeof(ofp_header) or > max_frame
};

/// Validate the frame at the head of `buffer` without copying or decoding.
/// On kReady, *total_len is the byte count to hand to decode(). A kBad
/// verdict means the stream is unrecoverable (framing is length-prefixed;
/// a bogus length loses sync) — the connection must be dropped.
FrameStatus peek_frame(std::span<const std::uint8_t> buffer,
                       std::size_t* total_len,
                       std::size_t max_frame = kMaxFrameLen);

// --- exposed for tests ---

/// Synthesize a real Ethernet (+IPv4+TCP/UDP) frame for a packet.
std::vector<std::uint8_t> synthesize_frame(const Packet& pkt);
/// Parse a frame back (reverse of synthesize_frame; tolerates real-world
/// frames, filling defaults for anything beyond Ethernet/IPv4/TCP/UDP).
Result<Packet> parse_frame(std::span<const std::uint8_t> data,
                           std::uint16_t total_len_hint = 0);

/// RFC 1071 Internet checksum (used for the synthesized IPv4 header).
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

} // namespace legosdn::of::wire10
