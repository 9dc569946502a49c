// Serialization of controller events, used by the AppVisor RPC protocol to
// ship events between the proxy (controller process) and stubs (app
// processes), and by replication records. OpenFlow events ride as scoped
// OF 1.0 frames (wire10.hpp); encoding fails when one exceeds the 16-bit
// frame length.
#pragma once

#include <span>
#include <vector>

#include "common/result.hpp"
#include "controller/event.hpp"

namespace legosdn::ctl {

Status encode_event(const Event& e, ByteWriter& w);
Result<Event> decode_event(ByteReader& r);

Result<std::vector<std::uint8_t>> encode_event(const Event& e);
Result<Event> decode_event(std::span<const std::uint8_t> bytes);

} // namespace legosdn::ctl
