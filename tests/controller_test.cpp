// Monolithic controller tests — including the fate-sharing behaviour that
// motivates the whole paper (Table 1: a crash anywhere kills the stack).
#include <gtest/gtest.h>

#include "apps/fault_injection.hpp"
#include "apps/hub.hpp"
#include "controller/controller.hpp"
#include "controller/event_codec.hpp"
#include "helpers.hpp"

namespace legosdn::ctl {
namespace {

using legosdn::test::RecorderApp;

TEST(Controller, StartAnnouncesSwitches) {
  auto net = netsim::Network::linear(3, 1);
  Controller c(*net);
  auto rec = std::make_shared<RecorderApp>();
  c.register_app(rec);
  c.start();
  EXPECT_EQ(c.run(), 3u);
  ASSERT_EQ(rec->events.size(), 3u);
  for (const auto& e : rec->events) EXPECT_EQ(event_type(e), EventType::kSwitchUp);
}

TEST(Controller, SubscriptionFiltering) {
  auto net = netsim::Network::linear(2, 1);
  Controller c(*net);
  auto packets_only = std::make_shared<RecorderApp>(
      "packets", std::vector<EventType>{EventType::kPacketIn});
  c.register_app(packets_only);
  c.start();
  c.run();
  EXPECT_TRUE(packets_only->events.empty()); // switch-ups filtered out
  c.inject_event(of::PacketIn{});
  c.run();
  EXPECT_EQ(packets_only->events.size(), 1u);
}

TEST(Controller, DispatchOrderAndStop) {
  auto net = netsim::Network::linear(1, 1);
  Controller c(*net);
  auto first = std::make_shared<RecorderApp>("first");
  auto second = std::make_shared<RecorderApp>("second");
  c.register_app(first);
  c.register_app(second);
  c.inject_event(of::PacketIn{});
  c.run();
  EXPECT_EQ(first->events.size(), 1u);
  EXPECT_EQ(second->events.size(), 1u);

  first->disposition = Disposition::kStop;
  c.inject_event(of::PacketIn{});
  c.run();
  EXPECT_EQ(first->events.size(), 2u);
  EXPECT_EQ(second->events.size(), 1u); // chain stopped before it
}

TEST(Controller, PacketInsFlowFromNetwork) {
  auto net = netsim::Network::linear(2, 1);
  Controller c(*net);
  auto rec = std::make_shared<RecorderApp>(
      "rec", std::vector<EventType>{EventType::kPacketIn});
  c.register_app(rec);
  net->inject_from_host(net->hosts()[0].mac, legosdn::test::host_packet(*net, 0, 1));
  EXPECT_EQ(c.run(), 1u);
  ASSERT_EQ(rec->events.size(), 1u);
  EXPECT_EQ(event_type(rec->events[0]), EventType::kPacketIn);
}

TEST(Controller, HubServicesTrafficViaController) {
  auto net = netsim::Network::linear(2, 1);
  Controller c(*net);
  c.register_app(std::make_shared<apps::Hub>());
  c.start();
  c.run();
  auto res =
      net->inject_from_host(net->hosts()[0].mac, legosdn::test::host_packet(*net, 0, 1));
  EXPECT_EQ(res.outcome, netsim::DeliveryResult::Outcome::kPunted);
  c.run(); // hub floods the buffered packet; flood punts again at s2, etc.
  c.run();
  EXPECT_GE(net->host_by_mac(net->hosts()[1].mac)->rx_packets, 1u);
}

// The crash of one app takes down the controller and every other app:
// the first fate-sharing relationship (paper §1).
TEST(Controller, MonolithicFateSharing) {
  auto net = netsim::Network::linear(2, 1);
  Controller c(*net);
  auto innocent = std::make_shared<RecorderApp>(
      "innocent", std::vector<EventType>{EventType::kPacketIn});
  apps::CrashTrigger trigger;
  trigger.on_type = EventType::kPacketIn;
  auto buggy = std::make_shared<apps::CrashyApp>(std::make_shared<apps::Hub>(), trigger);
  c.register_app(buggy);    // dispatched first
  c.register_app(innocent); // never reached once the controller dies
  c.start();
  c.run();

  c.inject_event(of::PacketIn{});
  c.run();
  EXPECT_TRUE(c.crashed());
  EXPECT_NE(c.crash_reason().find("hub+crashy"), std::string::npos);
  EXPECT_TRUE(innocent->events.empty());

  // While down, the controller services nothing.
  c.inject_event(of::PacketIn{});
  EXPECT_EQ(c.run(), 0u);
  EXPECT_GE(c.stats().events_dropped, 1u);
}

TEST(Controller, RebootResetsAllAppState) {
  auto net = netsim::Network::linear(2, 1);
  Controller c(*net);
  auto rec = std::make_shared<RecorderApp>(
      "rec", std::vector<EventType>{EventType::kPacketIn, EventType::kSwitchUp});
  apps::CrashTrigger trigger;
  trigger.on_type = EventType::kPacketIn;
  trigger.skip_first = 2;
  auto buggy = std::make_shared<apps::CrashyApp>(std::make_shared<apps::Hub>(), trigger);
  c.register_app(rec);
  c.register_app(buggy);
  c.start();
  c.run();
  const auto seen_before = rec->events.size();
  EXPECT_GT(seen_before, 0u);

  c.inject_event(of::PacketIn{});
  c.inject_event(of::PacketIn{});
  c.inject_event(of::PacketIn{}); // third packet-in crashes the stack
  c.run();
  EXPECT_TRUE(c.crashed());

  c.reboot();
  EXPECT_FALSE(c.crashed());
  // Reboot wiped the recorder's state (its event list) and re-announced
  // the switches: the state-loss cost of monolithic recovery.
  EXPECT_EQ(c.stats().reboots, 1u);
  c.run();
  for (const auto& e : rec->events) {
    EXPECT_EQ(event_type(e), EventType::kSwitchUp); // only fresh announcements
  }
}

TEST(Controller, SwitchStateEventsReachApps) {
  auto net = netsim::Network::linear(2, 1);
  Controller c(*net);
  auto rec = std::make_shared<RecorderApp>(
      "rec", std::vector<EventType>{EventType::kSwitchDown, EventType::kSwitchUp});
  c.register_app(rec);
  net->set_switch_state(DatapathId{2}, false);
  c.run();
  ASSERT_EQ(rec->events.size(), 1u);
  EXPECT_EQ(event_type(rec->events[0]), EventType::kSwitchDown);
  net->set_switch_state(DatapathId{2}, true);
  c.run();
  ASSERT_EQ(rec->events.size(), 2u);
  EXPECT_EQ(event_type(rec->events[1]), EventType::kSwitchUp);
}

TEST(EventCodec, RoundTripAllEventKinds) {
  auto net = netsim::Network::linear(2, 1);
  std::vector<Event> events;
  events.push_back(of::PacketIn{DatapathId{1}, 7, PortNo{2},
                                of::PacketInReason::kNoMatch,
                                legosdn::test::host_packet(*net, 0, 1)});
  of::PortStatus ps;
  ps.dpid = DatapathId{2};
  ps.desc.port = PortNo{3};
  ps.desc.name = "s2-eth3";
  ps.desc.link_up = false;
  events.push_back(ps);
  of::FlowRemoved fr;
  fr.dpid = DatapathId{1};
  fr.packet_count = 99;
  events.push_back(fr);
  of::StatsReply sr;
  sr.dpid = DatapathId{1};
  events.push_back(sr);
  events.push_back(of::BarrierReply{DatapathId{2}});
  events.push_back(of::OfError{DatapathId{1}, of::OfErrorType::kBadRequest, 2, "x"});
  events.push_back(SwitchUp{DatapathId{1}, net->switch_at(DatapathId{1})->features()});
  events.push_back(SwitchDown{DatapathId{2}});
  events.push_back(LinkDown{{DatapathId{1}, PortNo{3}}, {DatapathId{2}, PortNo{2}}});

  for (const auto& e : events) {
    auto decoded = decode_event(encode_event(e).value());
    ASSERT_TRUE(decoded.ok()) << describe(e) << ": " << decoded.error().to_string();
    EXPECT_EQ(decoded.value(), e) << describe(e);
  }
}

TEST(EventCodec, RejectsTruncatedEvents) {
  const Event e = SwitchDown{DatapathId{7}};
  auto bytes = encode_event(e).value();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> shortened(bytes.begin(),
                                        bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode_event(shortened).ok()) << "cut=" << cut;
  }
}

TEST(Events, DescribeAndDpid) {
  EXPECT_EQ(event_dpid(Event{SwitchDown{DatapathId{4}}}), DatapathId{4});
  EXPECT_EQ(event_dpid(Event{LinkDown{{DatapathId{2}, PortNo{1}}, {}}}), DatapathId{2});
  EXPECT_EQ(event_type(Event{of::PacketIn{}}), EventType::kPacketIn);
  EXPECT_NE(describe(Event{SwitchDown{DatapathId{4}}}).find("switch-down"),
            std::string::npos);
}

} // namespace
} // namespace legosdn::ctl
