// Switch-side OF 1.0 endpoint over a real loopback socket.
//
// Fronts a simulated switch (or a synthetic one, in benches) toward an
// OFServer: answers the controller's handshake (HELLO, FEATURES_REQUEST)
// and ECHO probes itself, hands every other controller->switch message to
// the downcall, and sends switch-originated messages (packet-in,
// flow-removed, ...) up the wire. Nonblocking connect: registration with
// the shared EventLoop completes the three-way handshake asynchronously,
// so thousands of clients can storm a server from one thread.
//
// Single-threaded: all methods run on the thread pumping the EventLoop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/result.hpp"
#include "openflow/wire10.hpp"
#include "southbound/event_loop.hpp"
#include "southbound/of_connection.hpp"

namespace legosdn::southbound {

class WireSwitchClient {
public:
  struct Config {
    DatapathId dpid{};
    of::FeaturesReply features{}; ///< sent verbatim in the handshake
    OFConnection::Limits limits{};
  };

  /// Receives every decoded controller->switch message that is not part of
  /// the session protocol (flow-mod, packet-out, stats-request, ...).
  using DowncallFn = std::function<void(const of::Message& msg)>;

  WireSwitchClient(EventLoop& loop, Config cfg, DowncallFn downcall);
  ~WireSwitchClient();

  WireSwitchClient(const WireSwitchClient&) = delete;
  WireSwitchClient& operator=(const WireSwitchClient&) = delete;

  /// Begin a nonblocking connect; the handshake completes over subsequent
  /// loop polls. Reconnecting after disconnect() is allowed.
  Status connect(const std::string& addr, std::uint16_t port);

  void disconnect();

  bool connected() const noexcept { return conn_ != nullptr; }
  /// Handshake done from this side (FEATURES_REPLY sent).
  bool ready() const noexcept { return ready_; }

  /// Send a switch-originated message to the controller. False when not
  /// connected, or when the message cannot be framed or queued (counted in
  /// sends_dropped).
  bool send(const of::Message& msg);

  DatapathId dpid() const noexcept { return cfg_.dpid; }

  struct Stats {
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t sends_dropped = 0; ///< unframeable, or connection closed
    std::uint64_t echo_replies = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t downcalls = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

private:
  void on_io(std::uint32_t events);
  void handle_frame(std::span<const std::uint8_t> frame);
  bool enqueue(const of::Message& msg);
  void service_out();
  void teardown();

  EventLoop& loop_;
  Config cfg_;
  DowncallFn downcall_;
  std::unique_ptr<OFConnection> conn_;
  bool connecting_ = false; ///< TCP connect still in flight
  bool ready_ = false;
  bool want_writable_ = false;
  std::uint32_t next_xid_ = 1;
  Stats stats_;
};

} // namespace legosdn::southbound
