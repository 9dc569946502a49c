// Process-isolation backend tests: real fork()ed stubs over UDP loopback.
// These exercise the paper's actual architecture — a crashing app is a dying
// OS process, detected and recovered by the proxy.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include "appvisor/process_domain.hpp"
#include "appvisor/udp_channel.hpp"
#include "apps/fault_injection.hpp"
#include "apps/hub.hpp"
#include "apps/learning_switch.hpp"
#include "helpers.hpp"

namespace legosdn::appvisor {
namespace {

of::PacketIn sample_packet_in(std::uint16_t tp_dst = 80) {
  of::PacketIn pin;
  pin.dpid = DatapathId{1};
  pin.in_port = PortNo{1};
  pin.packet = legosdn::test::packet_between(MacAddress::from_uint64(1),
                                             MacAddress::from_uint64(2), tp_dst);
  return pin;
}

TEST(UdpChannel, SmallFrameRoundTrip) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open());
  ASSERT_TRUE(b.open());
  const std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
  ASSERT_TRUE(a.send_frame({0, b.local_port()}, msg));
  auto rcv = b.recv_frame(1000);
  ASSERT_TRUE(rcv.ok());
  EXPECT_EQ(rcv.value().frame, msg);
  EXPECT_EQ(rcv.value().from.port, a.local_port());
}

TEST(UdpChannel, LargeFrameIsFragmentedAndReassembled) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open());
  ASSERT_TRUE(b.open());
  // 1 MiB frame: far beyond any UDP datagram.
  std::vector<std::uint8_t> big(1 << 20);
  Rng rng(5);
  for (auto& x : big) x = static_cast<std::uint8_t>(rng.below(256));
  ASSERT_TRUE(a.send_frame({0, b.local_port()}, big));
  auto rcv = b.recv_frame(5000);
  ASSERT_TRUE(rcv.ok());
  EXPECT_EQ(rcv.value().frame, big);
}

TEST(UdpChannel, RecvTimesOutCleanly) {
  UdpChannel a;
  ASSERT_TRUE(a.open());
  auto rcv = a.recv_frame(50);
  ASSERT_FALSE(rcv.ok());
  EXPECT_EQ(rcv.error().code, Error::Code::kTimeout);
}

TEST(UdpChannel, EmptyFrame) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open());
  ASSERT_TRUE(b.open());
  ASSERT_TRUE(a.send_frame({0, b.local_port()}, {}));
  auto rcv = b.recv_frame(1000);
  ASSERT_TRUE(rcv.ok());
  EXPECT_TRUE(rcv.value().frame.empty());
}

TEST(ProcessDomain, StartDeliverShutdown) {
  ProcessDomain d(std::make_shared<apps::Hub>());
  ASSERT_TRUE(d.start());
  EXPECT_TRUE(d.alive());
  EXPECT_GT(d.child_pid(), 0);

  auto out = d.deliver(ctl::Event{sample_packet_in()}, from_ms(1));
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.disposition, ctl::Disposition::kStop);
  ASSERT_EQ(out.emitted.size(), 1u);
  EXPECT_NE(out.emitted[0].get_if<of::PacketOut>(), nullptr);

  d.shutdown();
  EXPECT_FALSE(d.alive());
}

TEST(ProcessDomain, UnframeableMessagesAreDroppedNotCrashes) {
  ProcessDomain d(std::make_shared<apps::Hub>());
  ASSERT_TRUE(d.start());

  // An event past the OF 1.0 frame limit never reaches the stub.
  of::StatsReply sr;
  sr.dpid = DatapathId{1};
  sr.flows.resize(800);
  for (auto& f : sr.flows) f.actions = of::output_to(PortNo{1});
  auto out = d.deliver(ctl::Event{sr}, kSimStart);
  EXPECT_TRUE(out.ok()) << out.crash_info;
  EXPECT_TRUE(out.emitted.empty());
  EXPECT_EQ(d.transport_stats()->unframeable, 1u);

  // The hub echoes a 65,535-byte unbuffered packet as a packet-out that no
  // frame can hold: the stub drops the bundle and says so.
  of::PacketIn big = sample_packet_in();
  big.packet.size_bytes = 65535;
  out = d.deliver(ctl::Event{big}, kSimStart);
  EXPECT_TRUE(out.ok()) << out.crash_info;
  EXPECT_TRUE(out.emitted.empty());
  EXPECT_EQ(d.transport_stats()->unframeable, 2u);

  // Same app, same process: ordinary traffic still flows.
  EXPECT_TRUE(d.alive());
  out = d.deliver(ctl::Event{sample_packet_in()}, kSimStart);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.emitted.size(), 1u);
  d.shutdown();
}

TEST(ProcessDomain, RealCrashIsDetectedAndControllerSurvives) {
  apps::CrashTrigger t;
  t.on_tp_dst = 666;
  ProcessDomain d(
      std::make_shared<apps::CrashyApp>(std::make_shared<apps::Hub>(), t));
  ASSERT_TRUE(d.start());
  const pid_t pid_before = d.child_pid();

  // Benign event: fine.
  EXPECT_TRUE(d.deliver(ctl::Event{sample_packet_in(80)}, kSimStart).ok());

  // Poison event: the child process dies for real.
  auto out = d.deliver(ctl::Event{sample_packet_in(666)}, kSimStart);
  EXPECT_EQ(out.kind, EventOutcome::Kind::kCrashed);
  EXPECT_NE(out.crash_info.find("crashed on"), std::string::npos);
  EXPECT_FALSE(d.alive());
  // We (the proxy) are obviously still running — that's the whole point.

  // Restart respawns a fresh process.
  ASSERT_TRUE(d.restart());
  EXPECT_TRUE(d.alive());
  EXPECT_NE(d.child_pid(), pid_before);
  EXPECT_TRUE(d.deliver(ctl::Event{sample_packet_in(80)}, kSimStart).ok());
  d.shutdown();
}

TEST(ProcessDomain, SnapshotAndRestoreAcrossRespawn) {
  // Learning switch in a process: teach it a MAC, snapshot, crash it,
  // restore — the knowledge must survive the process boundary.
  apps::CrashTrigger t;
  t.on_tp_dst = 666;
  auto ls = std::make_shared<apps::LearningSwitch>();
  ProcessDomain d(std::make_shared<apps::CrashyApp>(ls, t));
  ASSERT_TRUE(d.start());

  // Teach: a packet from host A on port 1 (handled in the child).
  of::PacketIn teach = sample_packet_in(80);
  ASSERT_TRUE(d.deliver(ctl::Event{teach}, kSimStart).ok());

  auto snap = d.snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(snap.value().empty());

  // Kill it with the poison event, then restore the snapshot.
  auto out = d.deliver(ctl::Event{sample_packet_in(666)}, kSimStart);
  EXPECT_EQ(out.kind, EventOutcome::Kind::kCrashed);
  ASSERT_TRUE(d.restore(snap.value()));
  EXPECT_TRUE(d.alive());

  // The restored app must still know host A: a packet *to* A from elsewhere
  // gets a targeted packet-out (+flow-mod), not a flood.
  of::PacketIn reply = sample_packet_in(80);
  reply.in_port = PortNo{2};
  reply.packet.hdr.eth_src = MacAddress::from_uint64(2);
  reply.packet.hdr.eth_dst = MacAddress::from_uint64(1);
  auto out2 = d.deliver(ctl::Event{reply}, kSimStart);
  ASSERT_TRUE(out2.ok());
  bool installed_rule = false;
  for (const auto& m : out2.emitted)
    if (m.is<of::FlowMod>()) installed_rule = true;
  EXPECT_TRUE(installed_rule) << "restored state was lost across respawn";
  d.shutdown();
}

TEST(ProcessDomain, RestoreOfDeadDomainRespawns) {
  apps::CrashTrigger t;
  t.on_type = ctl::EventType::kPacketIn;
  ProcessDomain d(
      std::make_shared<apps::CrashyApp>(std::make_shared<apps::Hub>(), t));
  ASSERT_TRUE(d.start());
  auto out = d.deliver(ctl::Event{sample_packet_in()}, kSimStart);
  EXPECT_EQ(out.kind, EventOutcome::Kind::kCrashed);
  // restore with empty state = respawn fresh.
  ASSERT_TRUE(d.restore({}));
  EXPECT_TRUE(d.alive());
  d.shutdown();
}

TEST(ProcessDomain, SubscriptionsComeFromTemplate) {
  ProcessDomain d(std::make_shared<apps::LearningSwitch>());
  auto subs = d.subscriptions();
  EXPECT_NE(std::find(subs.begin(), subs.end(), ctl::EventType::kPacketIn),
            subs.end());
  EXPECT_EQ(d.app_name(), "learning-switch");
}

TEST(ProcessDomain, PollLivenessDetectsExternalKill) {
  ProcessDomain d(std::make_shared<apps::Hub>());
  ASSERT_TRUE(d.start());
  EXPECT_TRUE(d.poll_liveness());

  // The stub is murdered from outside (OOM-killer stand-in).
  ::kill(d.child_pid(), SIGKILL);
  for (int i = 0; i < 200 && d.poll_liveness(); ++i) ::usleep(1000);
  EXPECT_FALSE(d.poll_liveness());
  EXPECT_FALSE(d.alive());

  // Restart brings a fresh stub back.
  ASSERT_TRUE(d.restart());
  EXPECT_TRUE(d.poll_liveness());
  d.shutdown();
}

TEST(ProcessDomain, HeartbeatsArriveWhileIdle) {
  ProcessDomain::Config cfg;
  cfg.heartbeat_interval_ms = 20;
  ProcessDomain d(std::make_shared<apps::Hub>(), cfg);
  ASSERT_TRUE(d.start());
  // Idle for several heartbeat periods, then drain: a beat must have landed.
  ::usleep(120 * 1000);
  EXPECT_TRUE(d.poll_liveness());
  EXPECT_GE(d.ms_since_heartbeat(), 0);
  EXPECT_LT(d.ms_since_heartbeat(), 1000);
  d.shutdown();
}

TEST(ProcessDomain, ManySequentialEvents) {
  ProcessDomain d(std::make_shared<apps::Hub>());
  ASSERT_TRUE(d.start());
  for (int i = 0; i < 100; ++i) {
    auto out = d.deliver(ctl::Event{sample_packet_in()}, from_ms(i));
    ASSERT_TRUE(out.ok()) << "event " << i << ": " << out.crash_info;
  }
  d.shutdown();
}

} // namespace
} // namespace legosdn::appvisor
