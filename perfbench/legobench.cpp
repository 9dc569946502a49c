// legobench: the repository benchmark's measuring program (perfbench/README.md).
//
// Runs the LegoSDN pipeline — southbound decode -> lane dispatch ->
// checkpoint -> AppVisor deliver -> NetLog transaction -> invariant verify ->
// commit -> wire encode — in the paper-faithful configuration (byzantine
// detection on, a checkpoint before every event, 4 shard lanes, Absolute
// Compromise) on one of three workloads, and reports what a user of the
// controller sees: flow-setup latency under an open-loop offered rate and
// events/s under a closed loop with a fixed window in flight.
//
// Completion signal: an event is done when the commit BarrierRequest that
// follows its healthy app's FlowMod reaches the switch. The bench app stamps
// the event id (plus an app tag) into FlowMod::cookie; the switch-side hook —
// the NetLog southbound hook in-process, the WireSwitchClient downcall over
// the wire — matches barriers to the cookies it saw on that switch.
//
// Usage: legobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
// The last stdout line is "RESULT <json>"; perfbench/run.py turns it into the
// benchmark's result line. Exit code 1 when any correctness check fails.
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "apps/fault_injection.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "controller/app.hpp"
#include "invariant/invariant.hpp"
#include "legosdn/lego_controller.hpp"
#include "netsim/network.hpp"
#include "openflow/wire10.hpp"
#include "southbound/event_loop.hpp"
#include "southbound/of_server.hpp"
#include "southbound/wire_switch_client.hpp"

namespace {

using namespace legosdn;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- workloads

enum class Kind { kSteady, kFaults, kWire };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t working_set; ///< distinct flows the generator draws from
  double rate;             ///< open-loop offered rate, events/s
  std::size_t window;      ///< closed-loop events in flight
  double closed_rate;      ///< sizes the closed loop: events per second of phase
  std::size_t burst;       ///< wire: events per on-burst (0 = evenly spaced)
  int setups;              ///< set-ups per run; setup_s is their median
};

// Offered rates are fixed (not derived from a run's own saturation) so a
// faster program is measured at the same load as its parent. Each is about a
// quarter of the saturation a 4-vCPU host reached in its slow periods, so
// that latency measures the pipeline, not a queue near saturation. The
// closed loop does a fixed amount of work, sized by that slow-period
// saturation, so every run handles the same number of events (README.md).
// Set-up is repeated so its median is steady: a few 0.5 s prefills of the
// 4k-rule tables, or many of the ~30 ms set-ups of the small ones.
constexpr std::array<Workload, 3> kWorkloads{{
    {"faithful-steady", Kind::kSteady, 4096, 1000, 64, 3000, 0, 5},
    {"isolated-faults", Kind::kFaults, 256, 1000, 64, 3000, 0, 25},
    {"wire-burst", Kind::kWire, 256, 1250, 64, 5000, 4, 25},
}};

/// Share of an untraced run spent in the open loop; the closed loop gets the
/// rest. Host speed drifts over 10-20 s periods, so the latency phase gets
/// the larger share to average over more of them.
constexpr double kOpenShare = 0.65;

constexpr std::size_t kLanes = 4;
constexpr std::uint64_t kSpinIters = 2000; ///< bench app's fixed per-event cost
constexpr std::uint64_t kFaultEvery = 200; ///< 1 crash + 1 byzantine per 200
constexpr std::uint16_t kCrashPort = 6666; ///< tp_dst that trips CrashyApp
constexpr std::uint16_t kByzPort = 6667;   ///< tp_dst that trips ByzantineApp
constexpr std::uint16_t kNormalPort = 80;
constexpr std::size_t kTriggerFlows = 16;  ///< distinct flows per trigger kind
constexpr std::uint16_t kByzPriority = 0xE000; ///< ByzantineApp black-hole rule
constexpr std::uint16_t kByzPortNo = 0xEE00;
/// A run is invalid when more than 10% of its open-loop events were handed
/// over later than this: the offered load was not the workload's. Single
/// host stalls of several ms are normal and stay in the measured latency.
constexpr double kGenLagBoundUs = 5000;
constexpr std::int64_t kDrainDeadlineNs = 60'000'000'000;

// Cookie layout: app tag in the top byte, event id below.
enum Tag : std::uint64_t { kHealthy = 1, kCrashyInner = 2, kByzInner = 3, kTags = 4 };
constexpr std::uint64_t cookie_of(std::uint64_t tag, std::uint64_t ev) {
  return tag << 56 | ev;
}
constexpr std::uint16_t priority_of(std::uint64_t tag) {
  return tag == kHealthy ? 0x8000 : tag == kCrashyInner ? 0x7000 : 0x6000;
}

struct Flow {
  DatapathId dpid{};
  PortNo in_port{};
  of::PacketHeader hdr{};
};

// ------------------------------------------------------------------ tracing

/// One event's spans, all on the steady clock (ns). Parent of every child is
/// the root span [submit, done]; the event id is the slot's index.
struct EventSpans {
  std::int64_t submit = 0;   ///< root start: generator handed the event over
  std::int64_t inject = 0;   ///< wire: OFServer decoded it, lanes receive it
  std::int64_t cap0 = 0, cap1 = 0; ///< bench app snapshot_state (checkpoint capture)
  std::int64_t h0 = 0, h1 = 0;     ///< bench app handle_event
  std::int64_t apply0 = 0, apply_ns = 0; ///< Network::send_to_switch of its FlowMod
  std::int64_t out0 = 0;     ///< wire: commit barrier handed to OFServer::send
  std::int64_t done = 0;     ///< root end: commit barrier reached the switch
};

thread_local std::int64_t t_cap0 = 0, t_cap1 = 0;

/// Completion tracking and the open-loop window's bounded sample storage.
/// Everything is sized before a phase starts; lanes only write into slots.
class Tracker {
public:
  void init(const std::vector<DatapathId>& ids) {
    for (std::size_t i = 0; i < ids.size(); ++i) slot_of_[raw(ids[i])] = i;
    slots_ = std::vector<Slot>(ids.size());
    sent_ = std::vector<Slot>(ids.size());
  }

  /// Open the window of events [base, base + n): their completion times
  /// (and spans, when tracing) are kept in storage sized here.
  void open_window(std::uint64_t base, std::size_t n, bool spans) {
    base_ = base;
    done_.assign(n, 0);
    spans_.assign(spans ? n : 0, EventSpans{});
    tracing_.store(spans, std::memory_order_relaxed);
  }
  void close_window() { tracing_.store(false, std::memory_order_relaxed); }

  EventSpans* span(std::uint64_t ev) {
    if (!tracing_.load(std::memory_order_relaxed)) return nullptr;
    if (ev < base_ || ev - base_ >= spans_.size()) return nullptr;
    return &spans_[ev - base_];
  }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  /// Switch side: a controller->switch message has arrived at `dpid`.
  /// Commit order per switch is [FlowMod(cookie)...] BarrierRequest, and a
  /// rollback sends its inverses (never a cookie-stamped ADD here) before
  /// its barrier, so pending cookies are exactly the committed ones.
  void on_switch(const of::Message& m, std::int64_t t, std::int64_t apply_ns) {
    Slot& s = slots_[slot_of(of::dpid_of(m.body))];
    std::lock_guard<std::mutex> lk(s.mu);
    if (const auto* fm = m.get_if<of::FlowMod>()) {
      if (fm->command == of::FlowModCommand::kAdd && fm->cookie != 0) {
        s.pending.push_back(fm->cookie);
        if (EventSpans* sp = span(fm->cookie & kIdMask)) {
          if (fm->cookie >> 56 == kHealthy) {
            sp->apply0 = t;
            sp->apply_ns = apply_ns;
          }
        }
      } else {
        s.pending.clear(); // rollback inverse: the open txn is undone
      }
      return;
    }
    if (!m.get_if<of::BarrierRequest>()) return;
    for (const std::uint64_t c : s.pending) complete(c, t);
    s.pending.clear();
  }

  /// Controller side (wire, traced): the commit barrier left for `dpid`.
  void on_send(const of::Message& m, std::int64_t t) {
    if (!tracing()) return;
    Slot& s = sent_[slot_of(of::dpid_of(m.body))];
    std::lock_guard<std::mutex> lk(s.mu);
    if (const auto* fm = m.get_if<of::FlowMod>()) {
      if (fm->command == of::FlowModCommand::kAdd && fm->cookie >> 56 == kHealthy)
        s.pending.push_back(fm->cookie);
      else if (fm->command != of::FlowModCommand::kAdd)
        s.pending.clear();
      return;
    }
    if (!m.get_if<of::BarrierRequest>()) return;
    for (const std::uint64_t c : s.pending)
      if (EventSpans* sp = span(c & kIdMask)) sp->out0 = t;
    s.pending.clear();
  }

  std::uint64_t completed() const { return completed_.load(std::memory_order_acquire); }

  /// Block until more than `seen` events completed, or `max_ns` passed.
  void wait_past(std::uint64_t seen, std::int64_t max_ns) {
    std::unique_lock<std::mutex> lk(wait_mu_);
    wait_cv_.wait_for(lk, std::chrono::nanoseconds(max_ns),
                      [&] { return completed() > seen; });
  }
  std::uint64_t commits(std::uint64_t tag) const {
    return commits_[tag].load(std::memory_order_relaxed);
  }
  std::uint64_t base() const { return base_; }
  const std::vector<std::int64_t>& done() const { return done_; }
  const std::vector<EventSpans>& spans() const { return spans_; }

  static constexpr std::uint64_t kIdMask = (std::uint64_t{1} << 56) - 1;

private:
  struct Slot {
    std::mutex mu;
    std::vector<std::uint64_t> pending;
  };

  std::size_t slot_of(DatapathId d) const {
    const auto it = slot_of_.find(raw(d));
    if (it == slot_of_.end()) {
      std::fprintf(stderr, "legobench: message for unknown switch %llu\n",
                   static_cast<unsigned long long>(raw(d)));
      std::abort();
    }
    return it->second;
  }

  void complete(std::uint64_t cookie, std::int64_t t) {
    const std::uint64_t tag = cookie >> 56;
    if (tag >= kTags) return;
    commits_[tag].fetch_add(1, std::memory_order_relaxed);
    if (tag != kHealthy) return;
    const std::uint64_t ev = cookie & kIdMask;
    if (ev >= base_ && ev - base_ < done_.size()) {
      done_[ev - base_] = t;
      if (!spans_.empty()) spans_[ev - base_].done = t;
    }
    completed_.fetch_add(1, std::memory_order_release);
    // The empty critical section orders this completion against a waiter
    // between its predicate check and its sleep, so no wakeup is lost.
    { std::lock_guard<std::mutex> lk(wait_mu_); }
    wait_cv_.notify_one();
  }

  std::unordered_map<std::uint64_t, std::size_t> slot_of_;
  std::vector<Slot> slots_;
  std::vector<Slot> sent_;
  std::atomic<std::uint64_t> completed_{0};
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  std::array<std::atomic<std::uint64_t>, kTags> commits_{};
  std::atomic<bool> tracing_{false};
  std::uint64_t base_ = 0;
  std::vector<std::int64_t> done_;
  std::vector<EventSpans> spans_;
};

// ---------------------------------------------------------------- bench app

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
}

/// bench_throughput's BenchApp shape: per-switch counters, a fixed spin per
/// event, one exact-match FlowMod per packet-in — plus the cookie stamp that
/// lets the switch-side hook see which event a commit belongs to, and span
/// recording around the calls the controller makes into the app.
class BenchApp : public ctl::App {
public:
  BenchApp(std::uint64_t tag, Tracker* tracker) : tag_(tag), tracker_(tracker) {}

  std::string name() const override { return "bench-app-" + std::to_string(tag_); }
  std::vector<ctl::EventType> subscriptions() const override {
    return {ctl::EventType::kPacketIn};
  }
  ctl::AppPtr clone() const override {
    return std::make_shared<BenchApp>(tag_, tracker_);
  }

  ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi& api) override {
    const auto* pin = std::get_if<of::PacketIn>(&e);
    if (!pin) return ctl::Disposition::kContinue;
    const bool traced = tracker_ && tracker_->tracing();
    const std::int64_t h0 = traced ? now_ns() : 0;

    std::uint64_t acc = pin->packet.trace_tag;
    for (std::uint64_t i = 0; i < kSpinIters; ++i) acc = mix(acc, i);
    sink_ = acc;
    counters_[raw(pin->dpid)] += 1;

    of::FlowMod mod;
    mod.dpid = pin->dpid;
    mod.match = of::Match::exact(pin->in_port, pin->packet.hdr);
    mod.priority = priority_of(tag_);
    mod.cookie = cookie_of(tag_, pin->packet.trace_tag & Tracker::kIdMask);
    mod.actions = of::output_to(PortNo{1});
    api.send({api.next_xid(), mod});

    if (traced) {
      if (EventSpans* sp = tracker_->span(pin->packet.trace_tag)) {
        sp->cap0 = t_cap0;
        sp->cap1 = t_cap1;
        sp->h0 = h0;
        sp->h1 = now_ns();
      }
    }
    t_cap0 = t_cap1 = 0;
    return ctl::Disposition::kContinue;
  }

  std::vector<std::uint8_t> snapshot_state() const override {
    const bool traced = tracker_ && tracker_->tracing();
    const std::int64_t t0 = traced ? now_ns() : 0;
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(counters_.size()));
    for (const auto& [d, n] : counters_) {
      w.u64(d);
      w.u64(n);
    }
    auto out = std::move(w).take();
    if (traced) {
      t_cap0 = t0;
      t_cap1 = now_ns();
    }
    return out;
  }
  void restore_state(std::span<const std::uint8_t> state) override {
    counters_.clear();
    ByteReader r(state);
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      const std::uint64_t d = r.u64();
      counters_[d] = r.u64();
    }
  }
  void reset() override { counters_.clear(); }

private:
  std::uint64_t tag_;
  Tracker* tracker_; ///< null: no spans (the faulty apps' inner copies)
  std::map<std::uint64_t, std::uint64_t> counters_;
  volatile std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------- rig

/// Bounded sample of the message mix crossing the southbound (up to 256 of
/// each message type), for the after-run codec timing. Once full it costs
/// the lanes one relaxed load per message.
class MessageSample {
public:
  void add(const of::Message& m) {
    if (full_.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t& n = per_type_[m.body.index() % per_type_.size()];
    if (n >= kPerType) return;
    n += 1;
    msgs_.push_back(m);
    // Packet-ins, flow-mods and barriers: the mix every workload sends.
    if (msgs_.size() >= 3 * kPerType) full_.store(true, std::memory_order_relaxed);
  }
  std::vector<of::Message> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return msgs_;
  }

private:
  static constexpr std::size_t kPerType = 256;
  std::atomic<bool> full_{false};
  std::mutex mu_;
  std::array<std::size_t, std::variant_size_v<of::MessageBody>> per_type_{};
  std::vector<of::Message> msgs_;
};

/// One controller deployment: network, LegoController, apps, and for
/// wire-burst the OFServer, its pump thread and the switch-side clients.
class Rig {
public:
  Rig(const Workload& w, std::uint64_t seed) : w_(w), rng_(seed) {
    net_ = w.kind == Kind::kWire ? netsim::Network::linear(4)
                                 : netsim::Network::fat_tree(4);
    ids_ = net_->switch_ids();
    tracker_.init(ids_);
    make_flows(seed);

    lego::LegoConfig cfg;
    cfg.dispatch.shards = kLanes;
    cfg.checkpoint_every = 1;
    cfg.byzantine_detection = true;
    ctl_ = std::make_unique<lego::LegoController>(*net_, cfg);

    if (w.kind == Kind::kFaults) {
      apps::CrashTrigger crash;
      crash.on_tp_dst = kCrashPort;
      ctl_->add_app(std::make_shared<apps::CrashyApp>(
          std::make_shared<BenchApp>(kCrashyInner, nullptr), crash));
      apps::CrashTrigger byz;
      byz.on_tp_dst = kByzPort;
      ctl_->add_app(std::make_shared<apps::ByzantineApp>(
          std::make_shared<BenchApp>(kByzInner, nullptr), byz,
          apps::ByzantineApp::Mode::kBlackHole));
    }
    ctl_->add_app(std::make_shared<BenchApp>(kHealthy, &tracker_));
  }

  ~Rig() {
    stop_pump();
    ctl_.reset(); // joins the lanes first
    clients_.clear();
    if (server_) server_->close();
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Controller start (TCP handshakes over the wire). False on error.
  bool start() {
    if (w_.kind != Kind::kWire) {
      ctl_->netlog().set_southbound([this](const of::Message& m) {
        sample_.add(m);
        const std::int64_t t0 = now_ns();
        net_->send_to_switch(m);
        tracker_.on_switch(m, t0, now_ns() - t0);
      });
      return static_cast<bool>(ctl_->start_system());
    }
    server_ = std::make_unique<southbound::OFServer>();
    client_loop_ = std::make_unique<southbound::EventLoop>();
    server_->set_event_batch([this](std::vector<ctl::Event> events) {
      if (tracker_.tracing()) {
        const std::int64_t t = now_ns();
        for (const auto& e : events)
          if (const auto* pin = std::get_if<of::PacketIn>(&e))
            if (EventSpans* sp = tracker_.span(pin->packet.trace_tag)) sp->inject = t;
      }
      ctl_->inject_events(std::move(events));
    });
    southbound::OFServerConfig scfg;
    scfg.echo_interval_ms = 0;
    scfg.idle_timeout_ms = 0;
    if (!server_->listen(scfg, [this](ctl::Event e) { ctl_->inject_event(std::move(e)); }))
      return false;
    const auto south = [this](const of::Message& m) {
      sample_.add(m);
      tracker_.on_send(m, now_ns());
      if (!server_->send(of::dpid_of(m.body), m))
        dropped_.fetch_add(1, std::memory_order_relaxed);
    };
    ctl_->set_southbound(south);
    ctl_->netlog().set_southbound(south);
    ctl_->set_switch_announcer([this] { connect_switches(); });
    if (!ctl_->start_system()) return false;
    for (const DatapathId d : ids_)
      if (!server_->knows(d)) return false;
    pump_ = std::thread([this] { pump_loop(); });
    return true;
  }

  const Workload& workload() const { return w_; }
  netsim::Network& net() { return *net_; }
  lego::LegoController& ctl() { return *ctl_; }
  Tracker& tracker() { return tracker_; }
  southbound::OFServer* server() { return server_.get(); }
  MessageSample& sample() { return sample_; }
  const std::vector<Flow>& flows() const { return flows_; }
  std::uint64_t dropped() const { return dropped_.load(); }
  double poll_busy_share() const {
    return poll_total_ns_ > 0 ? static_cast<double>(poll_busy_ns_) /
                                    static_cast<double>(poll_total_ns_)
                              : 0;
  }

  // ----- inputs

  /// Flow for the k-th event of the measured phases: a uniform draw from the
  /// working set, except at two fixed slots of every kFaultEvery in the
  /// faults workload, which draw from the crash and byzantine trigger flows.
  std::size_t pick_flow(std::uint64_t k) {
    if (w_.kind == Kind::kFaults) {
      if (k % kFaultEvery == kFaultEvery / 2 - 1) {
        crashes_injected_ += 1;
        return w_.working_set + rng_.below(kTriggerFlows);
      }
      if (k % kFaultEvery == kFaultEvery - 1) {
        byz_injected_ += 1;
        return w_.working_set + kTriggerFlows + rng_.below(kTriggerFlows);
      }
    }
    return rng_.below(w_.working_set);
  }
  bool is_trigger(std::size_t flow) const { return flow >= w_.working_set; }

  std::uint64_t crashes_injected() const { return crashes_injected_; }
  std::uint64_t byz_injected() const { return byz_injected_; }

  /// Expected-good (event, app) operations so far: every app's FlowMod for
  /// every event except the faulting app's on its own trigger.
  std::uint64_t expected(std::uint64_t tag) const {
    if (tag == kHealthy) return submitted_;
    if (w_.kind != Kind::kFaults) return 0;
    return submitted_ - (tag == kCrashyInner ? crashes_injected_ : byz_injected_);
  }
  std::uint64_t expected_total() const {
    return expected(kHealthy) + expected(kCrashyInner) + expected(kByzInner);
  }

  // ----- generator side (one thread)

  std::uint64_t submitted() const { return submitted_; }

  /// Hand event `submitted()` for `flow` to the controller (or its switch's
  /// wire connection).
  void submit(std::size_t flow) {
    const Flow& f = flows_[flow];
    used_[flow] = true;
    of::PacketIn pin;
    pin.dpid = f.dpid;
    pin.in_port = f.in_port;
    pin.reason = of::PacketInReason::kNoMatch;
    pin.packet.hdr = f.hdr;
    pin.packet.size_bytes = 64; // minimum-size frames
    pin.packet.trace_tag = submitted_;
    if (EventSpans* sp = tracker_.span(submitted_)) sp->submit = now_ns();
    submitted_ += 1;
    if (sample_gen_ < 256) {
      sample_gen_ += 1;
      sample_.add({0, pin});
    }
    if (w_.kind == Kind::kWire) {
      auto& c = clients_.at(raw(f.dpid));
      if (!c->send({0, pin})) dropped_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ctl_->inject_event(ctl::Event{pin});
    }
  }

  /// Wait up to ~1 ms for completions (`block`), or just take what is ready.
  /// Over the wire this is the switch side's socket pass: controller->switch
  /// messages land here.
  void service(bool block = true) {
    if (w_.kind == Kind::kWire) {
      client_loop_->poll(block ? 1 : 0);
    } else if (block) {
      tracker_.wait_past(tracker_.completed(), 1'000'000);
    }
  }

  /// Wait until every submitted event completed; false on deadline.
  bool drain() {
    const std::int64_t deadline = now_ns() + kDrainDeadlineNs;
    while (tracker_.completed() < submitted_) {
      if (now_ns() > deadline) return false;
      service();
    }
    // Other apps' commits and checkpoint encodes finish behind the
    // healthy app's barrier: quiesce the lanes, the wire, and the worker.
    ctl_->run();
    if (w_.kind == Kind::kWire) {
      for (int calm = 0; calm < 20;) calm = client_loop_->poll(1) == 0 ? calm + 1 : 0;
    }
    ctl_->flush_checkpoints();
    return tracker_.completed() == submitted_;
  }

  /// Flows the run submitted at least once.
  std::vector<std::size_t> used_flows() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < used_.size(); ++i)
      if (used_[i]) out.push_back(i);
    return out;
  }

  /// Stop the southbound pump (wire) so the network is quiet for checks.
  void stop_pump() {
    if (!pump_.joinable()) return;
    pump_stop_.store(true);
    server_->wakeup();
    pump_.join();
  }

private:
  void make_flows(std::uint64_t seed) {
    // The seed picks flow identities; the program only ever sees packet-ins.
    Rng id_rng(seed ^ 0xF10F10F10ULL);
    const std::uint64_t salt = id_rng.below(1 << 16);
    const std::size_t n = w_.working_set + (w_.kind == Kind::kFaults ? 2 * kTriggerFlows : 0);
    const std::size_t ports = w_.kind == Kind::kWire ? 3 : 4;
    for (std::size_t i = 0; i < n; ++i) {
      Flow f;
      f.dpid = ids_[i % ids_.size()];
      f.in_port = PortNo{static_cast<std::uint16_t>(1 + (i / ids_.size()) % ports)};
      f.hdr.eth_src = MacAddress::from_uint64(0x0A0000000000ULL + (salt << 24) + i);
      f.hdr.eth_dst = MacAddress::from_uint64(0x0B0000000000ULL + (salt << 24) + i);
      f.hdr.eth_type = of::kEthTypeIpv4;
      f.hdr.ip_proto = of::kIpProtoTcp;
      f.hdr.tp_src = static_cast<std::uint16_t>(1024 + i % 60000);
      f.hdr.tp_dst = i < w_.working_set                     ? kNormalPort
                     : i < w_.working_set + kTriggerFlows ? kCrashPort
                                                          : kByzPort;
      flows_.push_back(f);
    }
    used_.assign(flows_.size(), false);
  }

  void connect_switches() {
    // Sequential handshakes in switch-id order, as SouthboundBridge does.
    for (const DatapathId d : ids_) {
      southbound::WireSwitchClient::Config cc;
      cc.dpid = d;
      cc.features = net_->switch_at(d)->features();
      auto client = std::make_unique<southbound::WireSwitchClient>(
          *client_loop_, std::move(cc), [this](const of::Message& m) {
            // Over the wire, controller->switch messages reach the network on
            // this thread; take the controller's write gate and the NetLog
            // stripes as SouthboundBridge does.
            const std::int64_t t0 = now_ns();
            ctl_->with_txn_write_gate([&] {
              ctl_->netlog().with_world_lock([&] { net_->send_to_switch(m); });
            });
            tracker_.on_switch(m, t0, now_ns() - t0);
          });
      if (!client->connect("127.0.0.1", server_->port())) return;
      const std::int64_t deadline = now_ns() + 5'000'000'000;
      while (!server_->knows(d) && now_ns() < deadline) {
        server_->poll(0);
        client_loop_->poll(0);
      }
      clients_.emplace(raw(d), std::move(client));
    }
  }

  /// The southbound pump. Busy share = this thread's CPU time over its wall
  /// time (epoll waits cost no CPU).
  void pump_loop() {
    const auto cpu_ns = [] {
      ::timespec ts{};
      ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
    };
    const std::int64_t wall0 = now_ns();
    const std::int64_t cpu0 = cpu_ns();
    while (!pump_stop_.load(std::memory_order_relaxed)) server_->poll(1);
    poll_busy_ns_ = cpu_ns() - cpu0;
    poll_total_ns_ = now_ns() - wall0;
  }

  Workload w_;
  Rng rng_;
  std::unique_ptr<netsim::Network> net_;
  std::vector<DatapathId> ids_;
  std::vector<Flow> flows_;
  std::vector<bool> used_;
  Tracker tracker_;
  MessageSample sample_;
  std::size_t sample_gen_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t crashes_injected_ = 0;
  std::uint64_t byz_injected_ = 0;
  std::atomic<std::uint64_t> dropped_{0};

  // wire-burst only
  std::unique_ptr<southbound::OFServer> server_;
  std::unique_ptr<southbound::EventLoop> client_loop_;
  std::unordered_map<std::uint64_t, std::unique_ptr<southbound::WireSwitchClient>> clients_;
  std::thread pump_;
  std::atomic<bool> pump_stop_{false};
  std::int64_t poll_busy_ns_ = 0;  ///< pump thread only; read after join
  std::int64_t poll_total_ns_ = 0;

  std::unique_ptr<lego::LegoController> ctl_; ///< last: destroyed first
};

// ------------------------------------------------------------------- phases

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double median_of(std::vector<double> v) { return percentile(std::move(v), 50); }

std::int64_t process_cpu_ns() {
  ::timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Fill the working set once (each flow, seeded order) with `window` in
/// flight. Part of set-up: tables reach their plateau before measuring.
bool prefill(Rig& rig, std::uint64_t seed) {
  std::vector<std::size_t> order(rig.workload().working_set);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng r(seed ^ 0x5EED);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[r.below(i)]);
  std::size_t next = 0;
  while (next < order.size()) {
    if (rig.submitted() - rig.tracker().completed() < rig.workload().window) {
      rig.submit(order[next++]);
    } else {
      rig.service();
    }
  }
  return rig.drain();
}

/// Closed loop: `closed_rate * seconds` events with `window` in flight, so
/// every run does the same work (state that grows per event stays
/// comparable). A slow host may take up to twice `seconds`; past that the
/// phase stops early.
struct ClosedLoopResult {
  /// Median completion rate of kRateSlices equal slices of the work, so a
  /// short stall moves one slice, not the figure.
  double events_per_s = 0;
  /// Process CPU time (controller plus this harness) per completed event.
  /// Unlike the rate it does not count time spent waiting for a CPU or a
  /// wakeup, which on a shared host varies from run to run by 2x or more.
  double cpu_us_per_event = 0;
};

constexpr int kRateSlices = 8;
ClosedLoopResult closed_loop(Rig& rig, double seconds, std::uint64_t& phase_index,
                             bool& ok) {
  const Workload& w = rig.workload();
  const auto total = static_cast<std::uint64_t>(w.closed_rate * seconds);
  const std::uint64_t first = rig.submitted();
  const std::uint64_t done0 = rig.tracker().completed();
  const std::int64_t t0 = now_ns();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(2 * seconds * 1e9);
  std::vector<double> rates;
  std::uint64_t done_mark = done0;
  std::int64_t mark = t0;
  for (int k = 1; k <= kRateSlices; ++k) {
    const std::uint64_t goal = done0 + total * k / kRateSlices;
    while (rig.tracker().completed() < goal && now_ns() < deadline) {
      if (rig.submitted() - first < total &&
          rig.submitted() - rig.tracker().completed() < w.window) {
        rig.submit(rig.pick_flow(phase_index++));
      } else {
        rig.service();
      }
    }
    const std::uint64_t done = rig.tracker().completed();
    const std::int64_t t = now_ns();
    rates.push_back(static_cast<double>(done - done_mark) * 1e9 /
                    static_cast<double>(t - mark));
    done_mark = done;
    mark = t;
  }
  ok = rig.drain() && ok;
  const std::int64_t cpu = process_cpu_ns() - cpu0;
  std::printf("  closed-loop slices (ev/s):");
  for (const double r : rates) std::printf(" %.0f", r);
  std::printf("%s\n", rig.submitted() - first < total ? " (stopped at 2x time)" : "");
  ClosedLoopResult res;
  res.events_per_s = median_of(rates);
  res.cpu_us_per_event = static_cast<double>(cpu) / 1e3 /
                         static_cast<double>(rig.tracker().completed() - done0);
  return res;
}

struct OpenLoopResult {
  std::vector<double> lat_us; ///< per event, due -> done
  std::vector<double> lag_us; ///< per event, due -> handed over
  std::vector<bool> trigger;  ///< event drew a fault-trigger flow
};

/// Open loop: events on a fixed schedule at the workload's rate (bursts for
/// wire-burst), each timed from when it was due.
OpenLoopResult open_loop(Rig& rig, double seconds, std::uint64_t& phase_index,
                         bool spans, bool& ok) {
  const Workload& w = rig.workload();
  const std::size_t n = static_cast<std::size_t>(w.rate * seconds);
  const std::int64_t start = now_ns() + 2'000'000;
  std::vector<std::int64_t> due(n);
  const double gap_ns = 1e9 / w.rate;
  for (std::size_t i = 0; i < n; ++i) {
    // Bursts: each run of `burst` events is due at once; runs are spaced so
    // the mean rate stays w.rate.
    const std::size_t slot = w.burst ? i - i % w.burst : i;
    due[i] = start + static_cast<std::int64_t>(static_cast<double>(slot) * gap_ns);
  }
  rig.tracker().open_window(rig.submitted(), n, spans);

  OpenLoopResult res;
  res.lag_us.reserve(n);
  res.trigger.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // In-process the generator spins until the due time. Sleeping put the
    // host's timer wakeups into every event's latency: generator lag p99 was
    // 0.2-2.4 ms when sleeping and under 1 us when spinning, and over six
    // paired runs the p50's spread fell from 0.22 to 0.12 on isolated-faults.
    // At the offered rates the lanes need about a quarter of one CPU, so
    // the spinning thread leaves them three. Over the wire the generator is
    // also the switches: it blocks on their sockets until shortly before the
    // due time, then polls them without blocking. Polling without blocking
    // for the whole gap lowered the p50 but doubled its spread there.
    if (w.kind == Kind::kWire) {
      for (std::int64_t wait; (wait = due[i] - now_ns()) > 0;)
        rig.service(wait > 1'500'000);
    } else {
      while (now_ns() < due[i]) {
      }
    }
    const std::size_t flow = rig.pick_flow(phase_index++);
    res.trigger.push_back(rig.is_trigger(flow));
    res.lag_us.push_back(static_cast<double>(now_ns() - due[i]) / 1e3);
    rig.submit(flow);
  }
  ok = rig.drain() && ok;
  rig.tracker().close_window();
  const auto& done = rig.tracker().done();
  res.lat_us.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (done[i] == 0) ok = false;
    res.lat_us[i] = done[i] ? static_cast<double>(done[i] - due[i]) / 1e3 : 0;
  }
  return res;
}

// ------------------------------------------------------------------ outputs

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
public:
  void add(const std::string& name, double v, const std::string& unit) {
    metrics_.push_back({name, v, unit});
    std::printf("  %-40s %16.4f %s\n", name.c_str(), v, unit.c_str());
  }
  void check(const std::string& what, bool pass, const std::string& detail) {
    if (!pass) all_pass_ = false;
    std::printf("  [%s] %s%s%s\n", pass ? "ok" : "FAIL", what.c_str(),
                detail.empty() ? "" : ": ", detail.c_str());
  }
  void meta(const std::string& k, const std::string& v) {
    std::printf("  %-16s %s\n", k.c_str(), v.c_str());
  }
  bool pass() const { return all_pass_; }

  std::string json(std::uint64_t attempted, std::uint64_t failed) const {
    std::string s = "{\"correct\": ";
    s += all_pass_ ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      if (i) s += ", ";
      s += "\"" + metrics_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics_[i].unit + "\"}";
    }
    s += "}}";
    return s;
  }

private:
  std::vector<Metric> metrics_;
  bool all_pass_ = true;
};

/// This process image's peak resident set (VmHWM). Not ru_maxrss: Linux
/// carries that across execve, so it would report the launching process's
/// footprint whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
  }
  return 0;
}

/// Median ns per call of `fn` over `reps` passes of `n` items.
template <typename Fn>
double time_per_item_ns(std::size_t n, int reps, Fn&& fn) {
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    per.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
  }
  return median_of(per);
}

/// The child spans of one traced event, in the order they happen. Every
/// child's parent is the root span [submit, done]: southbound in (wire), lane
/// queue wait, checkpoint capture, app handle, switch apply of its FlowMod,
/// southbound out (wire). What the children leave of the root is LegoSDN's
/// own time: Crash-Pad, NetLog, verification and locks.
template <typename Fn>
void for_each_child(const EventSpans& e, Fn&& fn) {
  std::int64_t lane_in = e.submit;
  if (e.inject) {
    fn("southbound.in", e.submit, e.inject);
    lane_in = e.inject;
  }
  if (e.h0) {
    fn("controller.queue_wait", lane_in, e.cap0 ? e.cap0 : e.h0);
    if (e.cap0) fn("checkpoint.capture", e.cap0, e.cap1);
    fn("apps.handle", e.h0, e.h1);
  }
  if (e.apply0) fn("netsim.switch_apply", e.apply0, e.apply0 + e.apply_ns);
  if (e.out0) fn("southbound.out", e.out0, e.done);
}

/// Per-event durations (us) of the traced window, by span name.
struct SpanStats {
  std::map<std::string, std::vector<double>> child;
  std::vector<double> root, self;
};

SpanStats span_stats(const std::vector<EventSpans>& spans) {
  SpanStats s;
  for (const auto& e : spans) {
    if (e.submit == 0 || e.done == 0) continue;
    const double root = static_cast<double>(e.done - e.submit) / 1e3;
    double children = 0;
    for_each_child(e, [&](const char* name, std::int64_t a, std::int64_t b) {
      const double us = static_cast<double>(b - a) / 1e3;
      s.child[name].push_back(us);
      children += us;
    });
    s.root.push_back(root);
    s.self.push_back(root - children);
  }
  return s;
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Spans as rows: event, span, parent, start_ns, end_ns.
void write_spans(const std::string& path, const std::vector<EventSpans>& spans,
                 std::uint64_t base) {
  std::ofstream out(path);
  if (!out) return;
  out << "event\tspan\tparent\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& e = spans[i];
    if (e.submit == 0 || e.done == 0) continue;
    const std::uint64_t ev = base + i;
    out << ev << "\tlegosdn.root\t-\t" << e.submit << '\t' << e.done << '\n';
    for_each_child(e, [&](const char* name, std::int64_t a, std::int64_t b) {
      out << ev << '\t' << name << "\tlegosdn.root\t" << a << '\t' << b << '\n';
    });
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool break_gate = false; ///< self-test only: sabotage one rule before the gate
  std::string spans_out;   ///< where the traced run writes its spans
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (k == "--break-gate") {
      a.break_gate = true;
      continue;
    }
    const auto v = val();
    if (!v) return false;
    try {
      if (k == "--workload") a.workload = *v;
      else if (k == "--seed") a.seed = std::stoull(*v);
      else if (k == "--seconds") a.seconds = std::stod(*v);
      else if (k == "--trace") a.trace = std::stoi(*v) != 0;
      else if (k == "--spans-out") a.spans_out = *v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

} // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: legobench --workload <faithful-steady|isolated-faults|"
                 "wire-burst> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <file>]\n");
    return 2;
  }
  const Workload* wp = nullptr;
  for (const auto& w : kWorkloads)
    if (args.workload == w.name) wp = &w;
  if (!wp) {
    std::fprintf(stderr, "legobench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  const bool wire = w.kind == Kind::kWire;
  Report rep;

  std::printf("legobench %s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  rep.meta("host_cpus", std::to_string(std::thread::hardware_concurrency()));
  rep.meta("lanes", std::to_string(kLanes));
  rep.meta("compiler", LEGOBENCH_COMPILER);
  rep.meta("build_type", LEGOBENCH_BUILD_TYPE);
  rep.meta("loopback", wire ? "yes (traffic crosses loopback TCP, not a link)" : "no");

  // ---- set-up: topology, controller start (handshakes), prefill.
  // Repeated and reported as a median; the last rig is the measured one.
  const int setups = args.trace ? 1 : w.setups;
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  bool ok = true;
  for (int i = 0; i < setups; ++i) {
    rig.reset();
    const std::int64_t t0 = now_ns();
    rig = std::make_unique<Rig>(w, args.seed);
    if (!rig->start()) {
      std::fprintf(stderr, "legobench: controller start failed\n");
      return 1;
    }
    ok = prefill(*rig, args.seed) && ok;
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::uint64_t prefill_events = rig->submitted();

  // ---- measured phases
  // Tight timer slack for this (generator) thread only: over the wire it
  // blocks on the switch sockets until shortly before each due time.
  // Threads the controller already started keep the default.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::uint64_t phase_index = 0;
  ClosedLoopResult cl, cl_untraced;
  OpenLoopResult ol;
  if (!args.trace) {
    cl = closed_loop(*rig, args.seconds * (1 - kOpenShare), phase_index, ok);
    ol = open_loop(*rig, args.seconds * kOpenShare, phase_index, false, ok);
  } else {
    cl_untraced = closed_loop(*rig, args.seconds * 0.25, phase_index, ok);
    // Traced closed loop: spans on for every event of the phase, for the
    // overhead ratio.
    {
      const auto cap = static_cast<std::size_t>(w.closed_rate * args.seconds * 0.25);
      rig->tracker().open_window(rig->submitted(), cap, true);
      cl = closed_loop(*rig, args.seconds * 0.25, phase_index, ok);
      rig->tracker().close_window();
    }
    std::printf("  closed loop: %.0f ev/s untraced, %.0f ev/s traced\n",
                cl_untraced.events_per_s, cl.events_per_s);
    ol = open_loop(*rig, args.seconds * 0.5, phase_index, true, ok);
  }
  rig->stop_pump();
  // Before the harness's after-run work (stats merges, verification timing)
  // can add to it.
  const double rss_mb = peak_rss_mb();

  auto& c = rig->ctl();
  const auto ls = c.lego_stats();
  const auto nl = c.netlog().stats();
  const auto* eng = c.dispatch_engine();
  const auto ds = eng ? eng->stats() : ctl::ShardedDispatcher::Stats{};
  const std::uint64_t events = rig->submitted();

  // ---- correctness gate
  std::printf("correctness:\n");
  auto& net = rig->net();
  if (args.break_gate) {
    // Self-test sabotage: remove one working-set rule behind the
    // controller's back; the installed-flows check must catch it.
    const Flow& f = rig->flows().front();
    of::FlowMod del;
    del.dpid = f.dpid;
    del.command = of::FlowModCommand::kDeleteStrict;
    del.match = of::Match::exact(f.in_port, f.hdr);
    del.priority = priority_of(kHealthy);
    net.send_to_switch({0, del});
  }
  rep.check("all events completed", ok && rig->tracker().completed() == events,
            std::to_string(rig->tracker().completed()) + "/" + std::to_string(events));
  {
    std::size_t missing = 0;
    for (const std::size_t fi : rig->used_flows()) {
      const Flow& f = rig->flows()[fi];
      const netsim::SimSwitch* sw = net.switch_at(f.dpid);
      if (!sw || !sw->table().find_strict(of::Match::exact(f.in_port, f.hdr),
                                          priority_of(kHealthy)))
        missing += 1;
    }
    rep.check("every working-set flow installed", missing == 0,
              std::to_string(missing) + " missing of " +
                  std::to_string(rig->used_flows().size()));
  }
  {
    std::size_t byz_rules = 0;
    for (const DatapathId d : net.switch_ids()) {
      for (const auto& e : net.switch_at(d)->table().entries()) {
        bool bad = e.priority == kByzPriority;
        for (const auto& a : e.actions)
          if (const auto* o = std::get_if<of::ActionOutput>(&a))
            bad = bad || raw(o->port) == kByzPortNo;
        byz_rules += bad ? 1 : 0;
      }
    }
    rep.check("no byzantine rule survives", byz_rules == 0, std::to_string(byz_rules));
  }
  {
    invariant::InvariantChecker chk(net);
    const auto v = chk.check(c.config().invariants);
    rep.check("InvariantChecker::check() empty", v.empty(),
              v.empty() ? "" : v.front().to_string());
  }
  rep.check("failstop_crashes == injected", ls.failstop_crashes == rig->crashes_injected(),
            std::to_string(ls.failstop_crashes) + " vs " +
                std::to_string(rig->crashes_injected()));
  rep.check("byzantine_failures == injected", ls.byzantine_failures == rig->byz_injected(),
            std::to_string(ls.byzantine_failures) + " vs " +
                std::to_string(rig->byz_injected()));
  rep.check("txns_committed == expected-good", ls.txns_committed == rig->expected_total(),
            std::to_string(ls.txns_committed) + " vs " +
                std::to_string(rig->expected_total()));
  std::uint64_t landed = 0;
  for (std::uint64_t tag = kHealthy; tag < kTags; ++tag) {
    landed += rig->tracker().commits(tag);
    rep.check("commits at switch, app tag " + std::to_string(tag),
              rig->tracker().commits(tag) == rig->expected(tag),
              std::to_string(rig->tracker().commits(tag)) + " vs " +
                  std::to_string(rig->expected(tag)));
  }
  // NetLog digest audits: every rollback must restore its pre-transaction
  // shadow digest, and at quiescence every shadow must equal its switch.
  // The commit-time shadow-vs-switch audit counts only in-process: over the
  // wire the switch has not applied the FlowMod yet when commit audits it,
  // so that count is every commit by construction (printed, not gated).
  std::uint64_t quiescent_mismatches = 0;
  for (const DatapathId d : net.switch_ids()) {
    const netsim::FlowTable* sh = c.netlog().shadow(d);
    const std::uint64_t live = net.switch_at(d)->table().logical_digest();
    if (sh ? sh->logical_digest() != live : net.switch_at(d)->table().size() != 0)
      quiescent_mismatches += 1;
  }
  const std::uint64_t digest_mismatches = nl.rollback_digest_mismatches +
                                          quiescent_mismatches +
                                          (wire ? 0 : nl.shadow_sync_mismatches);
  rep.check("netlog digest mismatches == 0", digest_mismatches == 0,
            std::to_string(nl.rollback_digest_mismatches) + " rollback, " +
                std::to_string(quiescent_mismatches) + " shadow!=switch at rest, " +
                std::to_string(nl.shadow_sync_mismatches) + " commit-time audit" +
                (wire ? " (wire: not gated)" : ""));
  const auto* srv = rig->server();
  const std::uint64_t sb_dropped =
      rig->dropped() + (srv ? srv->stats().sends_dropped : 0);
  rep.check("southbound dropped == 0", sb_dropped == 0, std::to_string(sb_dropped));
  const double gen_lag_p99 = percentile(ol.lag_us, 99);
  std::printf("  generator lag us: p50 %.1f p99 %.1f max %.1f\n",
              percentile(ol.lag_us, 50), gen_lag_p99, percentile(ol.lag_us, 100));
  const double gen_lag_p90 = percentile(ol.lag_us, 90);
  rep.check("generator on schedule (lag p90 <= bound)", gen_lag_p90 <= kGenLagBoundUs,
            std::to_string(gen_lag_p90) + " us vs " + std::to_string(kGenLagBoundUs));

  const std::uint64_t attempted = rig->expected_total();
  const std::uint64_t failed = attempted > landed ? attempted - landed : 0;

  // ---- metrics
  // Flow-setup latency covers every open-loop event; recovery isolates the
  // fault-triggering ones.
  const std::vector<double>& lat_all = ol.lat_us;
  std::vector<double> lat_trig;
  for (std::size_t i = 0; i < ol.lat_us.size(); ++i)
    if (ol.trigger[i]) lat_trig.push_back(ol.lat_us[i]);

  rep.meta("events", std::to_string(events) + " (prefill " +
                         std::to_string(prefill_events) + ")");
  rep.meta("latency_samples", std::to_string(lat_all.size()) + " (p99 has " +
                                  std::to_string(lat_all.size() / 100) +
                                  " samples beyond it)");
  // Per-slice medians show host drift within the run; the metric is the
  // median over all of it.
  std::printf("  open-loop slice p50 (us):");
  for (int k = 0; k < kRateSlices; ++k) {
    const std::size_t a = lat_all.size() * k / kRateSlices;
    const std::size_t b = lat_all.size() * (k + 1) / kRateSlices;
    std::printf(" %.0f", percentile({lat_all.begin() + a, lat_all.begin() + b}, 50));
  }
  std::printf("\n");
  std::printf("metrics:\n");
  rep.add("events_per_s", cl.events_per_s, "ev/s");
  rep.add("cpu_us_per_event", cl.cpu_us_per_event, "us");
  rep.add("setup_p50_us", percentile(lat_all, 50), "us");
  rep.add("setup_p99_us", percentile(lat_all, 99), "us");
  rep.add("recovery_p50_us", percentile(lat_trig, 50), "us");
  rep.add("failed_frac",
          attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0,
          "ratio");
  rep.add("peak_rss_mb", rss_mb, "MiB");
  rep.add("setup_s", median_of(setup_s), "s");
  if (args.trace) {
    const SpanStats sp = span_stats(rig->tracker().spans());
    const auto p50 = [&](const char* name) {
      const auto it = sp.child.find(name);
      return it == sp.child.end() ? 0.0 : percentile(it->second, 50);
    };
    if (!args.spans_out.empty())
      write_spans(args.spans_out, rig->tracker().spans(), rig->tracker().base());

    rep.add("controller.queue_wait_p50_us", p50("controller.queue_wait"), "us");
    rep.add("controller.lock_acquisitions_per_event",
            ds.dispatched ? static_cast<double>(ds.lock_acquisitions) /
                                static_cast<double>(ds.dispatched)
                          : 0,
            "ratio");
    rep.add("controller.events_per_batch_p50", ds.batch_events.percentile(50), "count");
    rep.add("controller.queue_peak", static_cast<double>(ds.queue_peak), "count");
    rep.add("apps.handle_p50_us", p50("apps.handle"), "us");
    rep.add("checkpoint.capture_p50_us", p50("checkpoint.capture"), "us");
    rep.add("checkpoint.stored_bytes_per_event",
            ls.checkpoints ? static_cast<double>(ls.checkpoint_stored_bytes) /
                                 static_cast<double>(ls.checkpoints)
                           : 0,
            "B");
    const double snaps = static_cast<double>(ls.full_snapshots + ls.delta_snapshots);
    rep.add("checkpoint.delta_share",
            snaps ? static_cast<double>(ls.delta_snapshots) / snaps : 0, "ratio");
    rep.add("checkpoint.inline_encodes", static_cast<double>(ls.inline_encodes), "count");
    rep.add("checkpoint.encode_lag_p50_us", ls.encode_lag_us.percentile(50), "us");
    const double physical_commits = static_cast<double>(
        nl.committed - nl.coalesced_spans + nl.coalesced_commits);
    rep.add("netlog.commits_per_event",
            events ? physical_commits / static_cast<double>(events) : 0, "ratio");
    rep.add("netlog.rollbacks", static_cast<double>(nl.rolled_back), "count");
    rep.add("netlog.undo_ops_applied", static_cast<double>(nl.undo_ops_applied), "count");
    rep.add("netlog.digest_mismatches", static_cast<double>(digest_mismatches), "count");

    // Verification cost on the final tables, with sampled workload mods.
    {
      invariant::InvariantChecker chk(net);
      const auto& inv = c.config().invariants;
      const auto used = rig->used_flows();
      std::vector<of::FlowMod> mods;
      for (std::size_t i = 0; i < used.size() && mods.size() < 256; i += 1 + used.size() / 256) {
        const Flow& f = rig->flows()[used[i]];
        of::FlowMod m;
        m.dpid = f.dpid;
        m.match = of::Match::exact(f.in_port, f.hdr);
        m.priority = priority_of(kHealthy);
        m.actions = of::output_to(PortNo{1});
        mods.push_back(m);
      }
      std::vector<double> cfm, reach;
      for (const auto& m : mods) {
        const std::int64_t t0 = now_ns();
        const auto v = chk.check_flow_mods(inv, std::span<const of::FlowMod>(&m, 1));
        cfm.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        const std::int64_t t1 = now_ns();
        const auto r = chk.check_reachability_only(inv);
        reach.push_back(static_cast<double>(now_ns() - t1) / 1e3);
      }
      std::size_t rules = 0;
      for (const DatapathId d : net.switch_ids()) rules += net.switch_at(d)->table().size();
      rep.add("invariant.check_flow_mods_p50_us", percentile(cfm, 50), "us");
      rep.add("invariant.reachability_p50_us", percentile(reach, 50), "us");
      rep.add("invariant.rules_per_switch",
              static_cast<double>(rules) / static_cast<double>(net.switch_ids().size()),
              "count");
      rep.add("netsim.rules_installed", static_cast<double>(rules), "count");
    }
    rep.add("legosdn.root_p50_us", percentile(sp.root, 50), "us");
    rep.add("legosdn.self_p50_us", percentile(sp.self, 50), "us");
    rep.add("crashpad.recoveries", static_cast<double>(ls.recoveries), "count");
    rep.add("crashpad.events_ignored", static_cast<double>(ls.events_ignored), "count");
    // Restore cost: the controller's restore call into the first app's
    // domain with its latest stored snapshot (a restore RPC in the process
    // backend; the respawn a crash adds shows in recovery_p50_us).
    {
      auto& entry = c.appvisor().entries().front();
      std::vector<double> rs;
      if (const auto snap = c.snapshots().latest(entry.id)) {
        for (int i = 0; i < 32; ++i) {
          const std::int64_t t0 = now_ns();
          if (!entry.domain->restore(snap->state)) break;
          rs.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        }
      }
      rep.add("crashpad.restore_p50_us", percentile(rs, 50), "us");
    }
    rep.add("netsim.switch_apply_p50_us", p50("netsim.switch_apply"), "us");
    const auto sst = srv ? srv->stats() : southbound::OFServer::Stats{};
    rep.add("southbound.poll_busy_share", rig->poll_busy_share(), "ratio");
    rep.add("southbound.frames_per_read_pass",
            sst.event_batches ? static_cast<double>(sst.frames_in) /
                                    static_cast<double>(sst.event_batches)
                              : 0,
            "ratio");
    rep.add("southbound.wakeups", static_cast<double>(sst.wakeups), "count");
    rep.add("southbound.dropped", static_cast<double>(sb_dropped), "count");
    rep.add("southbound.in_p50_us", p50("southbound.in"), "us");
    rep.add("southbound.out_p50_us", p50("southbound.out"), "us");
    {
      const auto msgs = rig->sample().take();
      std::vector<std::vector<std::uint8_t>> frames;
      for (const auto& m : msgs) {
        auto r = of::wire10::encode(m);
        if (r.ok()) frames.push_back(std::move(r).value());
      }
      std::size_t sink = 0;
      const double enc = time_per_item_ns(msgs.size(), 9, [&](std::size_t i) {
        auto r = of::wire10::encode(msgs[i]);
        sink += r.ok() ? r.value().size() : 0;
      });
      const double dec = time_per_item_ns(frames.size(), 9, [&](std::size_t i) {
        auto r = of::wire10::decode(frames[i], DatapathId{1});
        sink += r.ok() ? 1 : 0;
      });
      rep.add("openflow.encode_ns", enc, "ns");
      rep.add("openflow.decode_ns", dec, "ns");
      if (sink == 0) std::printf("  (codec sample empty)\n");
    }
    rep.add("bench.gen_lag_p99_us", gen_lag_p99, "us");
    rep.add("bench.tracing_overhead",
            cl.events_per_s > 0 ? cl_untraced.events_per_s / cl.events_per_s - 1 : 0,
            "ratio");

    // Span accounting: per event, the children plus LegoSDN's own time add
    // up to the root span, so their means do too; print the breakdown.
    std::printf("span breakdown (%zu traced events, mean us, share of root):\n",
                sp.root.size());
    const double root_mean = mean_of(sp.root);
    const auto row = [&](const std::string& name, const std::vector<double>& v) {
      const double m = v.empty() ? 0 : mean_of(v) * static_cast<double>(v.size()) /
                                           static_cast<double>(sp.root.size());
      std::printf("  %-28s %10.2f  %5.1f%%\n", name.c_str(), m,
                  root_mean > 0 ? 100 * m / root_mean : 0);
    };
    for (const auto& [name, v] : sp.child) row(name, v);
    row("legosdn.self", sp.self);
    std::printf("  %-28s %10.2f  100.0%%\n", "legosdn.root", root_mean);
  }
  std::printf("  ShardedDispatcher latency samples held: %zu (unbounded Summary)\n",
              ds.latency_us.count());
  std::printf("RESULT %s\n", rep.json(attempted, failed).c_str());
  std::fflush(stdout);
  return rep.pass() ? 0 : 1;
}
