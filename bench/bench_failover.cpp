// Experiment C14 (DESIGN.md §4.8): outage window across a controller
// failure, with and without a warm replica.
//
// The paper keeps one controller alive across SDN-App failures; this bench
// measures the complementary event — the controller process itself dying.
// Three recovery stories over the same warmed network:
//
//   monolithic cold reboot   controller state gone, switches cold -> every
//                            flow relearns through punts (the HotSwap ~10s
//                            story, in virtual time)
//   legosdn restart          upgrade_restart after the same cold reconnect:
//                            domains keep app state, so each punt reinstalls
//                            the right rule instead of relearning from floods
//   replicated failover      a warm follower promotes: app state, NetLog
//                            shadows, and switch tables all live -> the
//                            outage is the reconcile + re-announce window
//
// The headline is monolithic warm-time / replicated warm-time. The first
// two stories are experiment C6 (§3.4, controller upgrade) in virtual time:
// punt=500us, rule hit=5us. examples/scenarios/claims/c6_*.scn assert the
// same shape (fewer punts after a LegoSDN restart) without the cost model.
#include "apps/learning_switch.hpp"
#include "appvisor/inprocess_domain.hpp"
#include "bench_util.hpp"
#include "legosdn/lego_controller.hpp"
#include "legosdn/replication.hpp"

namespace {

using namespace legosdn;

constexpr auto kPuntCost = std::chrono::microseconds(500);
constexpr auto kHitCost = std::chrono::microseconds(5);

of::Packet mk_packet(const netsim::Network& net, std::size_t s, std::size_t d) {
  of::Packet p;
  p.hdr.eth_src = net.hosts()[s].mac;
  p.hdr.eth_dst = net.hosts()[d].mac;
  p.hdr.eth_type = of::kEthTypeIpv4;
  p.hdr.ip_src = net.hosts()[s].ip;
  p.hdr.ip_dst = net.hosts()[d].ip;
  p.hdr.ip_proto = of::kIpProtoTcp;
  p.hdr.tp_src = 40000;
  p.hdr.tp_dst = 80;
  return p;
}

struct FailureResult {
  std::uint64_t punts_after = 0;
  double warm_ms = 0; ///< virtual time until all pairs ride rules again
  std::size_t state_entries_after = 0;
};

struct Deployment {
  std::unique_ptr<netsim::Network> net;
  std::unique_ptr<ctl::Controller> single; ///< monolithic / single legosdn
  std::unique_ptr<lego::ReplicaSet> replicas;
  const apps::LearningSwitch* app = nullptr; ///< the instance serving traffic
  ctl::Controller* active = nullptr;
};

/// The learning switch hosted by a replica's first (in-process) domain.
const apps::LearningSwitch* hosted_app(lego::LegoController& c) {
  auto* dom = static_cast<appvisor::InProcessDomain*>(
      c.appvisor().entries()[0].domain.get());
  return static_cast<const apps::LearningSwitch*>(&dom->app());
}

/// Pump one flow through the deployment's active controller, advancing
/// virtual time by the punt or hit cost. Returns whether it punted.
bool pump(Deployment& d, std::size_t s, std::size_t dst) {
  const auto punts_before = d.net->totals().punted;
  d.net->inject_from_host(d.net->hosts()[s].mac, mk_packet(*d.net, s, dst));
  while (d.active->run() > 0) {
  }
  const bool punted = d.net->totals().punted > punts_before;
  d.net->advance_time(punted ? kPuntCost : kHitCost);
  return punted;
}

/// Warm every adjacent pair bidirectionally until no punts remain, then run
/// `fail`, then measure the relearning window.
template <typename Fail>
FailureResult run(Deployment d, Fail fail) {
  const std::size_t n = d.net->hosts().size();
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      pump(d, i, (i + 1) % n);
      pump(d, (i + 1) % n, i);
    }
  }

  fail(d);
  while (d.active->run() > 0) {
  }

  FailureResult res;
  res.state_entries_after = d.app->learned();
  const SimTime t0 = d.net->now();
  bool all_warm = false;
  int rounds = 0;
  while (!all_warm && rounds < 10) {
    all_warm = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (pump(d, i, (i + 1) % n)) {
        res.punts_after += 1;
        all_warm = false;
      }
      if (pump(d, (i + 1) % n, i)) {
        res.punts_after += 1;
        all_warm = false;
      }
    }
    rounds += 1;
  }
  res.warm_ms = to_ms(d.net->now()) - to_ms(t0);
  return res;
}

constexpr std::size_t kSwitches = 6;
constexpr std::size_t kHostsPerSwitch = 2;

Deployment monolithic() {
  Deployment d;
  d.net = netsim::Network::linear(kSwitches, kHostsPerSwitch);
  auto app = std::make_shared<apps::LearningSwitch>();
  d.app = app.get();
  d.single = std::make_unique<ctl::Controller>(*d.net);
  d.single->register_app(std::move(app));
  d.single->start();
  d.active = d.single.get();
  return d;
}

Deployment single_lego() {
  Deployment d;
  d.net = netsim::Network::linear(kSwitches, kHostsPerSwitch);
  auto app = std::make_shared<apps::LearningSwitch>();
  d.app = app.get();
  auto c = std::make_unique<lego::LegoController>(*d.net);
  c->add_app(std::move(app));
  c->start_system();
  d.active = c.get();
  d.single = std::move(c);
  return d;
}

Deployment replicated(lego::ReplicaSet*& set_out) {
  Deployment d;
  d.net = netsim::Network::linear(kSwitches, kHostsPerSwitch);
  d.replicas = std::make_unique<lego::ReplicaSet>(*d.net, lego::LegoConfig{},
                                                 lego::ReplicaConfig{});
  d.replicas->add_app([] { return std::make_shared<apps::LearningSwitch>(); });
  d.replicas->start();
  // The leader's instance serves traffic; after fail_over the promoted
  // follower's instance does — the fail lambda re-points active/app.
  d.active = &d.replicas->leader();
  d.app = hosted_app(d.replicas->leader());
  set_out = d.replicas.get();
  return d;
}

} // namespace

int main() {
  bench::section("C14: controller failover outage (DESIGN.md §4.8)");
  bench::note("linear(6)x2 hosts; learning switch; virtual control-loop costs");
  bench::note("(punt=500us, hit=5us). Failure = controller process dies.");
  std::printf("\n");

  bench::Table table({"recovery story", "punts after", "outage (virt ms)",
                      "app state entries kept"});

  // Monolithic: the controller dies and reboots cold; switch tables cleared
  // by the reconnect (cold control plane), app state gone.
  const auto mono = run(monolithic(), [](Deployment& d) {
    for (const auto dp : d.net->switch_ids())
      d.net->switch_at(dp)->cold_restart();
    d.single->reboot();
  });
  table.row({"monolithic cold reboot", std::to_string(mono.punts_after),
             bench::fmt(mono.warm_ms), std::to_string(mono.state_entries_after)});

  // Single LegoSDN, no replica: the process dies, so switches reconnect
  // cold (tables wiped) — but domains preserve app state, so each punt
  // reinstalls the right rule instead of relearning from floods.
  const auto lego = run(single_lego(), [](Deployment& d) {
    for (const auto dp : d.net->switch_ids())
      d.net->switch_at(dp)->cold_restart();
    static_cast<lego::LegoController*>(d.active)->upgrade_restart();
  });
  table.row({"legosdn restart", std::to_string(lego.punts_after),
             bench::fmt(lego.warm_ms), std::to_string(lego.state_entries_after)});

  // Replicated: an unplanned leader crash; the warm follower reconciles and
  // promotes. Nothing cold anywhere.
  lego::ReplicaSet* set = nullptr;
  std::uint64_t records_shipped = 0;
  std::uint64_t txns_adopted = 0, txns_discarded = 0;
  auto repl_deployment = replicated(set);
  const auto repl = run(std::move(repl_deployment), [&](Deployment& d) {
    records_shipped = set->records_shipped();
    const auto rep = set->fail_over();
    txns_adopted = rep.reconcile.txns_adopted;
    txns_discarded = rep.reconcile.txns_discarded;
    d.active = &set->leader();
    d.app = hosted_app(set->leader());
  });
  table.row({"replicated failover", std::to_string(repl.punts_after),
             bench::fmt(repl.warm_ms), std::to_string(repl.state_entries_after)});

  table.print();
  std::printf("\n");

  // Outage ratio: what the warm replica buys over a cold reboot. Virtual
  // time, so the number is deterministic across runners.
  const double denom = repl.warm_ms > 0 ? repl.warm_ms : kHitCost.count() / 1000.0;
  const double speedup = mono.warm_ms / denom;
  bench::note("headline: monolithic outage / replicated outage = " +
              bench::fmt(speedup) + "x");
  bench::note("replication stream: " + std::to_string(records_shipped) +
              " records shipped before the crash; reconcile adopted " +
              std::to_string(txns_adopted) + ", discarded " +
              std::to_string(txns_discarded));

  bench::Json j;
  j.begin_obj().kv("bench", std::string("failover"));
  j.kv_bool("smoke", bench::smoke());
  j.begin_arr("rows");
  auto emit_row = [&](const char* story, const FailureResult& r) {
    j.begin_obj()
        .kv("story", std::string(story))
        .kv("punts_after", r.punts_after)
        .kv("warm_ms", r.warm_ms)
        .kv("state_entries", static_cast<std::uint64_t>(r.state_entries_after))
        .kv_bool("cpu_oversubscribed", false) // replication forces serial dispatch
        .end_obj();
  };
  emit_row("monolithic_cold_reboot", mono);
  emit_row("legosdn_restart", lego);
  emit_row("replicated_failover", repl);
  j.end_arr();
  j.begin_obj("replication")
      .kv("records_shipped", records_shipped)
      .kv("txns_adopted", txns_adopted)
      .kv("txns_discarded", txns_discarded)
      .end_obj();
  j.begin_obj("headline")
      .kv("metric", std::string("monolithic_outage_over_replicated_outage"))
      .kv("speedup", speedup)
      .end_obj();
  j.end_obj();
  bench::emit_json(j);
  return 0;
}
