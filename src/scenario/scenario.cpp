#include "scenario/scenario.hpp"

#include <charconv>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "invariant/invariant.hpp"
#include "netsim/traffic.hpp"
#include "legosdn/replication.hpp"
#include "southbound/southbound_bridge.hpp"

#include "apps/fault_injection.hpp"
#include "apps/firewall.hpp"
#include "apps/hub.hpp"
#include "apps/learning_switch.hpp"
#include "apps/link_discovery.hpp"
#include "apps/load_balancer.hpp"
#include "apps/shortest_path_router.hpp"

namespace legosdn::scenario {
namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> out;
  std::istringstream iss{std::string(line)};
  std::string tok;
  while (iss >> tok) {
    if (tok.starts_with('#')) break;
    out.push_back(tok);
  }
  return out;
}

std::optional<std::uint64_t> parse_uint(std::string_view s) {
  std::uint64_t v = 0;
  const auto* end = s.data() + s.size();
  auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || p != end) return std::nullopt;
  return v;
}

/// key=value argument lookup within a command's trailing tokens.
std::optional<std::string> find_arg(const std::vector<std::string>& tokens,
                                    std::size_t from, std::string_view key) {
  const std::string prefix = std::string(key) + "=";
  for (std::size_t i = from; i < tokens.size(); ++i) {
    if (tokens[i].starts_with(prefix)) return tokens[i].substr(prefix.size());
  }
  return std::nullopt;
}

bool has_flag(const std::vector<std::string>& tokens, std::size_t from,
              std::string_view flag) {
  for (std::size_t i = from; i < tokens.size(); ++i)
    if (tokens[i] == flag) return true;
  return false;
}

std::optional<ctl::EventType> event_type_by_name(std::string_view s) {
  for (std::size_t i = 0; i < ctl::kEventTypeCount; ++i) {
    const auto t = static_cast<ctl::EventType>(i);
    if (s == ctl::to_string(t)) return t;
  }
  return std::nullopt;
}

/// Strict up/down keyword: anything else is a parse failure, never an
/// implicit "down".
std::optional<bool> parse_state(std::string_view s) {
  if (s == "up") return true;
  if (s == "down") return false;
  return std::nullopt;
}

std::optional<double> parse_double(std::string_view s) {
  double v = 0;
  const auto* end = s.data() + s.size();
  auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || p != end) return std::nullopt;
  return v;
}

/// Upper bound on a 'repeat' count, so a typo cannot unroll a script into
/// millions of commands.
constexpr std::uint64_t kMaxRepeat = 10'000;

template <typename T>
bool compare(T lhs, const std::string& op, T rhs) {
  if (op == "==") return lhs == rhs;
  if (op == "!=") return lhs != rhs;
  if (op == ">=") return lhs >= rhs;
  if (op == "<=") return lhs <= rhs;
  if (op == ">") return lhs > rhs;
  if (op == "<") return lhs < rhs;
  return false;
}

} // namespace

Result<Scenario> Scenario::parse(std::string_view text) {
  // Full validation happens at run() (it owns the semantic state); parse()
  // checks shape: known command words and minimal arity, with line numbers.
  static const std::map<std::string, std::size_t> kMinArity = {
      {"topology", 3},  {"architecture", 2}, {"backend", 2}, {"netlog", 2},
      {"southbound", 2}, {"replicas", 2},
      {"checkpoint", 3}, {"limits", 2},       {"policy", 2},  {"app", 2},
      {"wrap", 2},       {"start", 1},        {"send", 3},    {"switch", 3},
      {"link", 4},       {"advance", 2},      {"upgrade", 1}, {"expect", 2},
      {"traffic", 3},    {"at", 3},           {"leader", 2},
  };
  // Commands that may be scheduled behind an 'at <t>' prefix. Notably not
  // 'at' itself (no nesting) and not 'expect' (assertions belong to the
  // script's own sequencing, not the event queue).
  static const std::set<std::string> kSchedulable = {"switch", "link", "send",
                                                     "traffic", "leader"};
  auto error_at = [](std::size_t line, const std::string& why) {
    return Error{Error::Code::kParse, "scenario line " + std::to_string(line) + ": " + why};
  };
  Scenario sc;
  // The open 'repeat' block (count 0: none): its line, count and first body
  // command. Blocks are unrolled at 'end', so run() never sees them and every
  // copy keeps its original line number.
  struct {
    std::size_t line = 0;
    std::uint64_t count = 0;
    std::size_t body_begin = 0;
  } repeat;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    line_no += 1;
    auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (tokens[0] == "repeat") {
      if (repeat.count)
        return error_at(line_no, "nested 'repeat' (block opened at line " +
                                     std::to_string(repeat.line) + ")");
      const auto n = parse_uint(tokens.size() > 1 ? tokens[1] : "");
      if (!n || *n == 0 || *n > kMaxRepeat)
        return error_at(line_no, "'repeat' needs a count in 1.." +
                                     std::to_string(kMaxRepeat));
      repeat = {line_no, *n, sc.commands_.size()};
      continue;
    }
    if (tokens[0] == "end") {
      if (!repeat.count) return error_at(line_no, "'end' without 'repeat'");
      const std::size_t body_end = sc.commands_.size();
      sc.commands_.reserve(body_end + (repeat.count - 1) * (body_end - repeat.body_begin));
      for (std::uint64_t i = 1; i < repeat.count; ++i)
        for (std::size_t c = repeat.body_begin; c < body_end; ++c)
          sc.commands_.push_back(sc.commands_[c]);
      repeat.count = 0;
      continue;
    }
    auto it = kMinArity.find(tokens[0]);
    if (it == kMinArity.end())
      return error_at(line_no, "unknown command '" + tokens[0] + "'");
    if (tokens.size() < it->second) {
      return error_at(line_no, "'" + tokens[0] + "' needs at least " +
                                   std::to_string(it->second - 1) + " argument(s)");
    }
    if (tokens[0] == "at") {
      // Shape-check the scheduled command here too, so a bad nested command
      // fails at parse time with this line's number.
      const std::string& nested = tokens[2];
      if (!kSchedulable.contains(nested))
        return error_at(line_no, "'" + nested + "' cannot be scheduled with 'at'");
      const std::size_t nested_arity = kMinArity.at(nested);
      if (tokens.size() - 2 < nested_arity) {
        return error_at(line_no, "scheduled '" + nested + "' needs at least " +
                                     std::to_string(nested_arity - 1) + " argument(s)");
      }
    }
    sc.commands_.push_back({line_no, std::move(tokens), std::string(line)});
  }
  if (repeat.count) return error_at(repeat.line, "'repeat' without 'end'");
  return sc;
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

class Interpreter {
public:
  RunResult execute(const std::vector<Scenario::Command>& commands) {
    for (const auto& cmd : commands) {
      if (!step(cmd)) break;
    }
    if (!schedule_.empty()) {
      log_ << "note: " << schedule_.size()
           << " scheduled event(s) never fired (script ended before their time)\n";
    }
    if (result_.error.empty() && active()) capture_final_state();
    result_.ok = result_.error.empty() && result_.failed_checks() == 0;
    result_.transcript = log_.str();
    return std::move(result_);
  }

private:
  bool fail(const Scenario::Command& cmd, const std::string& why) {
    result_.error = "line " + std::to_string(cmd.line) + ": " + why;
    return false;
  }

  /// The controller currently fronting the network: the single controller,
  /// or the replica set's (possibly promoted) leader. Null before 'start'.
  ctl::Controller* active() {
    if (replica_set_) return &replica_set_->leader();
    return controller_.get();
  }

  void drain() {
    if (bridge_) {
      // Wire mode: quiescence spans the sockets too — frames in flight on a
      // loopback connection are work just like undispatched events.
      bridge_->settle();
      return;
    }
    while (active()->run() > 0) {
    }
  }

  bool require_started(const Scenario::Command& cmd) {
    if (!active()) {
      fail(cmd, "'" + cmd.tokens[0] + "' before start");
      return false;
    }
    return true;
  }

  /// The canonical scenario packet (TCP, well-known IPs/MACs) between two
  /// host indices.
  of::Packet pair_packet(std::size_t s, std::size_t d, std::uint16_t tp) const {
    of::Packet p;
    p.hdr.eth_src = net_->hosts()[s].mac;
    p.hdr.eth_dst = net_->hosts()[d].mac;
    p.hdr.eth_type = of::kEthTypeIpv4;
    p.hdr.ip_src = net_->hosts()[s].ip;
    p.hdr.ip_dst = net_->hosts()[d].ip;
    p.hdr.ip_proto = of::kIpProtoTcp;
    p.hdr.tp_src = 50000;
    p.hdr.tp_dst = tp;
    return p;
  }

  /// Push a packet from its source host through the dataplane + controller;
  /// true when its destination host's rx counter rose.
  bool inject(const of::Packet& p) {
    const netsim::Host* dst = net_->host_by_mac(p.hdr.eth_dst);
    const std::uint64_t before = dst ? dst->rx_packets : 0;
    net_->inject_from_host(p.hdr.eth_src, p);
    drain();
    return dst && dst->rx_packets > before;
  }

  /// A packet the script offers ('send', 'traffic'): counted toward
  /// 'expect availability'. The final-state probes bypass this.
  void offer(const of::Packet& p) {
    result_.offered += 1;
    if (inject(p)) result_.served += 1;
  }

  /// Final-state capture for differential comparison: controller liveness,
  /// invariant violations over the installed rules, then a dataplane
  /// reachability probe per ordered host pair. Violations are collected
  /// *before* probing so they describe the state the script produced, not
  /// rules the probes themselves provoked.
  void capture_final_state() {
    result_.started = true;
    result_.controller_down = active()->crashed();
    for (const auto& v : invariant::InvariantChecker(*net_).check_basic()) {
      result_.violations.push_back(v.to_string());
    }
    // Transaction outcome + per-switch digests before the probes mutate
    // tables: the wire-vs-in-process differential compares these directly.
    if (lego_) {
      const auto ns = lego_->netlog().stats();
      result_.netlog_committed = ns.committed;
      result_.netlog_rolled_back = ns.rolled_back;
    }
    for (const DatapathId dpid : net_->switch_ids()) {
      result_.switch_digests.push_back(
          net_->switch_at(dpid)->table().logical_digest());
    }
    const std::size_t n = net_->hosts().size();
    result_.n_hosts = n;
    result_.reachability.assign(n * n, 0);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t d = 0; d < n; ++d) {
        if (s != d) result_.reachability[s * n + d] = inject(pair_packet(s, d, 80)) ? 1 : 0;
      }
    }
  }

  /// Apps are kept as factories, not instances: replicated mode builds one
  /// fresh instance per replica (isolation domains own their apps), and the
  /// single-controller path just invokes each factory once.
  void push_app(std::function<ctl::AppPtr()> make) {
    PendingApp p;
    p.name = make()->name(); // factories are pure; one throwaway for the log
    p.make = std::move(make);
    pending_.push_back(std::move(p));
  }

  bool build_app(const Scenario::Command& cmd) {
    const std::string& kind = cmd.tokens[1];
    if (kind == "hub") {
      push_app([] { return std::make_shared<apps::Hub>(); });
    } else if (kind == "flooder") {
      push_app([] { return std::make_shared<apps::Flooder>(); });
    } else if (kind == "learning-switch") {
      std::uint16_t idle = 0;
      if (auto p = find_arg(cmd.tokens, 2, "idle")) {
        auto v = parse_uint(*p);
        if (!v || *v > 0xFFFF) return fail(cmd, "bad idle");
        idle = static_cast<std::uint16_t>(*v);
      }
      push_app([idle] { return std::make_shared<apps::LearningSwitch>(idle); });
    } else if (kind == "discovery") {
      push_app([] { return std::make_shared<apps::LinkDiscovery>(); });
    } else if (kind == "router") {
      std::vector<apps::ShortestPathRouter::LinkInfo> links;
      for (const auto& l : net_->links()) links.push_back({l.a, l.b});
      std::uint16_t idle = 0;
      if (auto p = find_arg(cmd.tokens, 2, "idle")) {
        auto v = parse_uint(*p);
        if (!v || *v > 0xFFFF) return fail(cmd, "bad idle");
        idle = static_cast<std::uint16_t>(*v);
      }
      push_app([links, idle] {
        return std::make_shared<apps::ShortestPathRouter>(links, idle);
      });
    } else if (kind == "firewall") {
      std::vector<of::Match> deny;
      if (auto p = find_arg(cmd.tokens, 2, "deny_tp")) {
        auto v = parse_uint(*p);
        if (!v) return fail(cmd, "bad deny_tp");
        deny.push_back(of::Match{}.with_tp_dst(static_cast<std::uint16_t>(*v)));
      }
      push_app([deny] { return std::make_shared<apps::Firewall>(deny); });
    } else if (kind == "load-balancer") {
      if (net_->hosts().size() < 3) return fail(cmd, "load-balancer needs >=3 hosts");
      std::vector<apps::LoadBalancer::Backend> backends{
          {net_->hosts()[1].mac, net_->hosts()[1].ip},
          {net_->hosts()[2].mac, net_->hosts()[2].ip}};
      push_app([backends] {
        return std::make_shared<apps::LoadBalancer>(
            IpV4::from_octets(10, 99, 0, 1), MacAddress::from_uint64(0xFEED),
            backends);
      });
    } else {
      return fail(cmd, "unknown app '" + kind + "'");
    }
    log_ << "app " << pending_.back().name << "\n";
    return true;
  }

  bool parse_trigger(const Scenario::Command& cmd, std::size_t from,
                     apps::CrashTrigger* out) {
    if (auto p = find_arg(cmd.tokens, from, "tp_dst")) {
      auto v = parse_uint(*p);
      if (!v) return fail(cmd, "bad tp_dst");
      out->on_tp_dst = static_cast<std::uint16_t>(*v);
    }
    if (auto p = find_arg(cmd.tokens, from, "event")) {
      auto t = event_type_by_name(*p);
      if (!t) return fail(cmd, "unknown event type '" + *p + "'");
      out->on_type = t;
    }
    if (auto p = find_arg(cmd.tokens, from, "skip")) {
      auto v = parse_uint(*p);
      if (!v) return fail(cmd, "bad skip");
      out->skip_first = *v;
    }
    if (auto p = find_arg(cmd.tokens, from, "prob")) {
      auto v = parse_double(*p);
      if (!v || !(*v > 0.0 && *v <= 1.0)) return fail(cmd, "bad prob (want 0 < p <= 1)");
      out->probability = *v;
    }
    if (has_flag(cmd.tokens, from, "transient")) out->deterministic = false;
    return true;
  }

  bool wrap_app(const Scenario::Command& cmd) {
    if (pending_.empty()) return fail(cmd, "'wrap' before any 'app'");
    const std::string& kind = cmd.tokens[1];
    apps::CrashTrigger trigger;
    const auto inner = pending_.back().make;
    if (kind == "crashy") {
      if (!parse_trigger(cmd, 2, &trigger)) return false;
      pending_.back().make = [inner, trigger] {
        return std::make_shared<apps::CrashyApp>(inner(), trigger);
      };
    } else if (kind == "byzantine") {
      if (cmd.tokens.size() < 3) return fail(cmd, "byzantine needs a mode");
      apps::ByzantineApp::Mode mode;
      if (cmd.tokens[2] == "blackhole") mode = apps::ByzantineApp::Mode::kBlackHole;
      else if (cmd.tokens[2] == "loop") mode = apps::ByzantineApp::Mode::kLoop;
      else if (cmd.tokens[2] == "dropall") mode = apps::ByzantineApp::Mode::kDropAll;
      else return fail(cmd, "unknown byzantine mode '" + cmd.tokens[2] + "'");
      if (!parse_trigger(cmd, 3, &trigger)) return false;
      std::optional<std::pair<PortLocator, PortLocator>> loop_link;
      if (mode == apps::ByzantineApp::Mode::kLoop && !net_->links().empty()) {
        loop_link = {net_->links()[0].a, net_->links()[0].b};
      }
      pending_.back().make = [inner, trigger, mode, loop_link] {
        return std::make_shared<apps::ByzantineApp>(inner(), trigger, mode,
                                                    loop_link);
      };
    } else if (kind == "chatty") {
      auto burst = parse_uint(cmd.tokens.size() > 2 ? cmd.tokens[2] : "");
      if (!burst) return fail(cmd, "chatty needs a burst size");
      if (!parse_trigger(cmd, 3, &trigger)) return false;
      pending_.back().make = [inner, trigger, b = *burst] {
        return std::make_shared<apps::ChattyApp>(inner(), trigger, b);
      };
    } else {
      return fail(cmd, "unknown wrapper '" + kind + "'");
    }
    pending_.back().name = pending_.back().make()->name();
    log_ << "wrap -> " << pending_.back().name << "\n";
    return true;
  }

  bool handle_traffic(const Scenario::Command& cmd) {
    if (!require_started(cmd)) return false;
    const std::string& pattern = cmd.tokens[1];
    auto n = parse_uint(cmd.tokens[2]);
    if (!n) return fail(cmd, "bad count");
    if (pattern == "pairs") {
      // Deterministic all-ordered-pairs sweeps: the convergence workload the
      // fuzzer uses to warm both architectures into a comparable state.
      const std::size_t hosts = net_->hosts().size();
      std::size_t sent = 0;
      for (std::uint64_t sweep = 0; sweep < *n; ++sweep) {
        for (std::size_t s = 0; s < hosts; ++s) {
          for (std::size_t d = 0; d < hosts; ++d) {
            if (s == d) continue;
            offer(pair_packet(s, d, 80));
            ++sent;
          }
        }
      }
      log_ << "traffic pairs x" << *n << " (" << sent << " packets)\n";
      return true;
    }
    netsim::TrafficGenerator::Pattern pat;
    if (pattern == "uniform") pat = netsim::TrafficGenerator::Pattern::kUniformRandom;
    else if (pattern == "stride") pat = netsim::TrafficGenerator::Pattern::kStride;
    else if (pattern == "incast") pat = netsim::TrafficGenerator::Pattern::kIncast;
    else if (pattern == "hotspot") pat = netsim::TrafficGenerator::Pattern::kHotspot;
    else return fail(cmd, "unknown traffic pattern '" + pattern + "'");
    if (net_->hosts().size() < 2) return fail(cmd, "traffic needs >= 2 hosts");
    std::uint64_t repeats = 1;
    if (cmd.tokens.size() > 3 && cmd.tokens[3].find('=') == std::string::npos) {
      auto r = parse_uint(cmd.tokens[3]);
      if (!r || *r == 0) return fail(cmd, "bad repeats");
      repeats = *r;
    }
    // Each traffic command gets its own generator; the per-script sequence
    // number keeps successive commands decorrelated yet fully deterministic.
    std::uint64_t seed = 0x5EED0000 + traffic_seq_;
    if (auto p = find_arg(cmd.tokens, 3, "seed")) {
      auto v = parse_uint(*p);
      if (!v) return fail(cmd, "bad seed");
      seed = *v;
    }
    traffic_seq_ += 1;
    netsim::TrafficGenerator gen(*net_, pat, seed);
    for (const auto& flow : gen.batch(*n, repeats)) offer(flow.second);
    log_ << "traffic " << pattern << " " << *n << " x" << repeats << "\n";
    return true;
  }

  bool step(const Scenario::Command& cmd) {
    const std::string& word = cmd.tokens[0];

    if (word == "topology") {
      const std::string& shape = cmd.tokens[1];
      auto n = parse_uint(cmd.tokens[2]);
      if (!n || *n == 0) return fail(cmd, "bad size");
      std::uint64_t hosts = 1;
      if (cmd.tokens.size() > 3 && cmd.tokens[3].find('=') == std::string::npos) {
        auto h = parse_uint(cmd.tokens[3]);
        if (!h) return fail(cmd, "bad hosts_per_switch");
        hosts = *h;
      }
      if (shape == "linear") net_ = netsim::Network::linear(*n, hosts);
      else if (shape == "ring") net_ = netsim::Network::ring(*n, hosts);
      else if (shape == "star") net_ = netsim::Network::star(*n, hosts);
      else if (shape == "fat_tree") {
        net_ = netsim::Network::fat_tree(*n);
        if (!net_) return fail(cmd, "fat_tree needs an even k >= 2, got " +
                                        cmd.tokens[2]);
      } else if (shape == "random") {
        std::uint64_t extra = 1;
        std::uint64_t seed = 42;
        if (auto p = find_arg(cmd.tokens, 3, "extra")) {
          auto v = parse_uint(*p);
          if (!v) return fail(cmd, "bad extra");
          extra = *v;
        }
        if (auto p = find_arg(cmd.tokens, 3, "seed")) {
          auto v = parse_uint(*p);
          if (!v) return fail(cmd, "bad seed");
          seed = *v;
        }
        net_ = netsim::Network::random(*n, extra, hosts, seed);
        if (!net_) return fail(cmd, "random needs >= 2 switches, got " +
                                        cmd.tokens[2]);
      } else {
        return fail(cmd, "unknown topology '" + shape + "'");
      }
      log_ << "topology " << shape << " with " << net_->hosts().size() << " hosts\n";
      return true;
    }
    if (word == "architecture") {
      if (cmd.tokens[1] == "legosdn") lego_mode_ = true;
      else if (cmd.tokens[1] == "monolithic") lego_mode_ = false;
      else return fail(cmd, "unknown architecture");
      return true;
    }
    if (word == "backend") {
      if (cmd.tokens[1] == "inprocess") cfg_.backend = appvisor::Backend::kInProcess;
      else if (cmd.tokens[1] == "process") cfg_.backend = appvisor::Backend::kProcess;
      else return fail(cmd, "unknown backend");
      return true;
    }
    if (word == "southbound") {
      if (active()) return fail(cmd, "'southbound' after start");
      if (cmd.tokens[1] == "inprocess") wire_mode_ = false;
      else if (cmd.tokens[1] == "wire") wire_mode_ = true;
      else return fail(cmd, "unknown southbound '" + cmd.tokens[1] + "'");
      return true;
    }
    if (word == "replicas") {
      if (active()) return fail(cmd, "'replicas' after start");
      auto n = parse_uint(cmd.tokens[1]);
      if (!n || *n == 0) return fail(cmd, "bad replica count");
      // n is the total controller count: 1 = single (no replication),
      // n >= 2 = one leader + n-1 warm followers.
      replicas_n_ = *n;
      return true;
    }
    if (word == "netlog") {
      if (cmd.tokens[1] == "undo-log") cfg_.netlog.mode = netlog::Mode::kUndoLog;
      else if (cmd.tokens[1] == "delay-buffer")
        cfg_.netlog.mode = netlog::Mode::kDelayBuffer;
      else return fail(cmd, "unknown netlog mode");
      return true;
    }
    if (word == "checkpoint") {
      if (cmd.tokens[1] != "every") return fail(cmd, "expected 'checkpoint every <k>'");
      auto k = parse_uint(cmd.tokens[2]);
      if (!k || *k == 0) return fail(cmd, "bad k");
      cfg_.checkpoint_every = *k;
      return true;
    }
    if (word == "limits") {
      if (auto p = find_arg(cmd.tokens, 1, "max_messages")) {
        auto v = parse_uint(*p);
        if (!v) return fail(cmd, "bad max_messages");
        cfg_.limits.max_messages_per_event = *v;
      }
      if (auto p = find_arg(cmd.tokens, 1, "max_faults")) {
        auto v = parse_uint(*p);
        if (!v) return fail(cmd, "bad max_faults");
        cfg_.limits.max_faults = *v;
      }
      return true;
    }
    if (word == "policy") {
      for (std::size_t i = 1; i < cmd.tokens.size(); ++i) {
        policy_text_ += cmd.tokens[i];
        policy_text_ += i + 1 < cmd.tokens.size() ? " " : "";
      }
      policy_text_ += "\n";
      return true;
    }
    if (word == "app") {
      if (!net_) return fail(cmd, "'app' before 'topology'");
      return build_app(cmd);
    }
    if (word == "wrap") {
      if (!net_) return fail(cmd, "'wrap' before 'topology'");
      return wrap_app(cmd);
    }
    if (word == "start") {
      if (!net_) return fail(cmd, "'start' before 'topology'");
      if (!policy_text_.empty()) {
        auto parsed = crashpad::PolicyTable::parse(policy_text_);
        if (!parsed) return fail(cmd, parsed.error().to_string());
        cfg_.policies = std::move(parsed).value();
      }
      // Wire mode swaps the in-process adapter for real loopback sockets.
      // The bridge must hook the network and controller *before* start():
      // the switch announcement itself then runs as OF handshakes.
      auto attach_bridge = [this](ctl::Controller& c) -> Status {
        if (!wire_mode_) return Status::success();
        bridge_ = std::make_unique<southbound::SouthboundBridge>(*net_, c);
        return bridge_->start();
      };
      // Lego-mode bridge extras, reused when a promotion retargets the
      // bridge at the new leader.
      auto attach_lego_bridge = [this](lego::LegoController& l) {
        if (!bridge_) return;
        bridge_->attach_netlog(l.netlog());
        bridge_->set_delivery_gate([lp = &l](const std::function<void()>& fn) {
          lp->with_txn_write_gate(fn);
        });
      };
      if (lego_mode_ && replicas_n_ >= 2) {
        lego::ReplicaConfig rcfg;
        rcfg.followers = replicas_n_ - 1;
        // Round-trip every shipped record through the wire codec: the
        // scenario layer doubles as the codec's live-path exercise.
        rcfg.encode_records = true;
        replica_set_ =
            std::make_unique<lego::ReplicaSet>(*net_, cfg_, rcfg);
        for (const auto& p : pending_) replica_set_->add_app(p.make);
        replica_set_->set_pre_start_hook(
            [&](lego::LegoController& l) -> Status {
              if (auto st = attach_bridge(l); !st) return st;
              attach_lego_bridge(l);
              return Status::success();
            });
        replica_set_->set_failover_hooks(
            /*pre=*/[this, attach_lego_bridge](lego::LegoController& l) {
              if (!bridge_) return;
              // Before promotion: promote's start() must announce over the
              // bridge's surviving connections, not scan the network.
              bridge_->retarget(l);
              attach_lego_bridge(l);
            },
            /*post=*/[this](lego::LegoController&) {
              // After promotion: take back the network callbacks that
              // attach_network_callbacks() pointed at the in-process path.
              if (bridge_) bridge_->reattach_network_hooks();
            });
        if (auto st = replica_set_->start(); !st)
          return fail(cmd, st.error().to_string());
        lego_ = &replica_set_->leader();
      } else if (lego_mode_) {
        auto lego = std::make_unique<lego::LegoController>(*net_, cfg_);
        for (const auto& a : pending_) lego->add_app(a.make());
        if (auto st = attach_bridge(*lego); !st) return fail(cmd, st.error().to_string());
        attach_lego_bridge(*lego);
        if (auto st = lego->start_system(); !st) return fail(cmd, st.error().to_string());
        lego_ = lego.get();
        controller_ = std::move(lego);
      } else {
        if (replicas_n_ >= 2)
          return fail(cmd, "'replicas' needs architecture legosdn");
        controller_ = std::make_unique<ctl::Controller>(*net_);
        for (const auto& a : pending_) controller_->register_app(a.make());
        if (auto st = attach_bridge(*controller_); !st)
          return fail(cmd, st.error().to_string());
        controller_->start();
      }
      pending_.clear();
      drain();
      log_ << "started (" << (lego_mode_ ? "legosdn" : "monolithic")
           << (replicas_n_ >= 2
                   ? ", " + std::to_string(replicas_n_) + " replicas"
                   : "")
           << (wire_mode_ ? ", wire southbound" : "") << ")\n";
      return true;
    }
    if (word == "send") {
      if (!require_started(cmd)) return false;
      auto s = parse_uint(cmd.tokens[1]);
      auto d = parse_uint(cmd.tokens[2]);
      if (!s || !d || *s >= net_->hosts().size() || *d >= net_->hosts().size() ||
          *s == *d) {
        return fail(cmd, "bad host indices");
      }
      std::uint16_t tp = 80;
      if (cmd.tokens.size() > 3) {
        auto v = parse_uint(cmd.tokens[3]);
        if (!v) return fail(cmd, "bad tp_dst");
        tp = static_cast<std::uint16_t>(*v);
      }
      offer(pair_packet(*s, *d, tp));
      log_ << "send h" << *s << " -> h" << *d << " :" << tp << "\n";
      return true;
    }
    if (word == "switch") {
      if (!require_started(cmd)) return false;
      auto up = parse_state(cmd.tokens[1]);
      if (!up) return fail(cmd, "bad switch state '" + cmd.tokens[1] +
                                    "' (want up|down)");
      auto dpid = parse_uint(cmd.tokens[2]);
      if (!dpid) return fail(cmd, "bad dpid");
      net_->set_switch_state(DatapathId{*dpid}, *up);
      drain();
      log_ << "switch s" << *dpid << " " << cmd.tokens[1] << "\n";
      return true;
    }
    if (word == "link") {
      if (!require_started(cmd)) return false;
      auto up = parse_state(cmd.tokens[1]);
      if (!up) return fail(cmd, "bad link state '" + cmd.tokens[1] +
                                    "' (want up|down)");
      auto dpid = parse_uint(cmd.tokens[2]);
      auto port = parse_uint(cmd.tokens[3]);
      if (!dpid || !port) return fail(cmd, "bad link endpoint");
      net_->set_link_state({DatapathId{*dpid}, PortNo{static_cast<std::uint16_t>(*port)}},
                           *up);
      drain();
      log_ << "link s" << *dpid << ":p" << *port << " " << cmd.tokens[1] << "\n";
      return true;
    }
    if (word == "traffic") return handle_traffic(cmd);
    if (word == "at") {
      if (!require_started(cmd)) return false;
      auto secs = parse_uint(cmd.tokens[1]);
      if (!secs) return fail(cmd, "bad event time");
      Scenario::Command nested;
      nested.line = cmd.line;
      nested.tokens.assign(cmd.tokens.begin() + 2, cmd.tokens.end());
      nested.raw = cmd.raw;
      const std::int64_t t_ns =
          static_cast<std::int64_t>(*secs) * 1'000'000'000;
      schedule_.emplace(t_ns, std::move(nested));
      return true;
    }
    if (word == "advance") {
      if (!require_started(cmd)) return false;
      auto secs = parse_uint(cmd.tokens[1]);
      if (!secs) return fail(cmd, "bad seconds");
      const std::int64_t target_ns =
          raw(net_->now()) +
          static_cast<std::int64_t>(*secs) * 1'000'000'000;
      // Fire due scheduled events in time order (FIFO among equal times),
      // advancing the clock to each event's moment so flow expiry and the
      // event interleave exactly as they would in real time. Events whose
      // time already passed fire immediately at the current clock.
      while (!schedule_.empty() && schedule_.begin()->first <= target_ns) {
        auto node = schedule_.extract(schedule_.begin());
        const std::int64_t now_ns = raw(net_->now());
        if (node.key() > now_ns) {
          net_->advance_time(std::chrono::nanoseconds(node.key() - now_ns));
          drain();
        }
        log_ << "t=" << node.key() / 1'000'000'000 << "s fire: ";
        if (!step(node.mapped())) return false;
      }
      const std::int64_t now_ns = raw(net_->now());
      if (target_ns > now_ns) {
        net_->advance_time(std::chrono::nanoseconds(target_ns - now_ns));
        drain();
      }
      return true;
    }
    if (word == "upgrade") {
      if (!require_started(cmd)) return false;
      if (lego_) {
        lego_->upgrade_restart();
      } else {
        controller_->reboot();
      }
      drain();
      log_ << "controller upgraded\n";
      return true;
    }
    if (word == "leader") {
      if (!require_started(cmd)) return false;
      if (cmd.tokens[1] != "crash") return fail(cmd, "expected 'leader crash'");
      if (!replica_set_)
        return fail(cmd, "'leader crash' needs 'replicas <n>' with n >= 2");
      const auto rep = replica_set_->fail_over();
      if (!rep.promoted) return fail(cmd, "no follower left to promote");
      lego_ = &replica_set_->leader();
      drain();
      log_ << "leader crashed; follower promoted (txns adopted="
           << rep.reconcile.txns_adopted
           << " discarded=" << rep.reconcile.txns_discarded << ")\n";
      return true;
    }
    if (word == "expect") return handle_expect(cmd);
    return fail(cmd, "unhandled command '" + word + "'");
  }

  bool handle_expect(const Scenario::Command& cmd) {
    if (!require_started(cmd)) return false;
    CheckResult check;
    check.line = cmd.line;
    check.text = cmd.raw;

    const std::string& what = cmd.tokens[1];
    if (what == "controller") {
      auto want_up = parse_state(cmd.tokens.size() > 2 ? cmd.tokens[2] : "");
      if (!want_up)
        return fail(cmd, "expected 'expect controller (up|down)'");
      check.passed = active()->crashed() != *want_up;
      check.detail = active()->crashed() ? "controller is down" : "controller is up";
    } else if (what == "app") {
      if (!lego_) return fail(cmd, "'expect app' needs architecture legosdn");
      auto idx = parse_uint(cmd.tokens.size() > 2 ? cmd.tokens[2] : "");
      if (!idx || *idx >= lego_->appvisor().entries().size())
        return fail(cmd, "bad app index");
      const std::string& state = cmd.tokens.size() > 3 ? cmd.tokens[3] : "";
      if (state != "alive" && state != "down")
        return fail(cmd, "expected 'expect app <index> (alive|down)'");
      const bool alive = lego_->appvisor().entries()[*idx].domain->alive();
      check.passed = alive == (state == "alive");
      check.detail = alive ? "app alive" : "app down";
    } else if (what == "reachable" || what == "unreachable") {
      if (cmd.tokens.size() < 4)
        return fail(cmd, "expected 'expect " + what + " <src> <dst>'");
      auto s = parse_uint(cmd.tokens[2]);
      auto d = parse_uint(cmd.tokens[3]);
      if (!s || !d || *s >= net_->hosts().size() || *d >= net_->hosts().size() ||
          *s == *d) {
        return fail(cmd, "bad host indices");
      }
      // Symbolic trace over the *installed* rules (no counters touched, no
      // controller involved): does a canonical src->dst packet reach dst?
      const auto tr = invariant::InvariantChecker(*net_).trace(
          net_->hosts()[*s].attach, pair_packet(*s, *d, 80).hdr);
      check.passed = tr.delivered_any == (what == "reachable");
      check.detail = tr.delivered_any ? "delivered" : "not delivered";
    } else if (what == "availability") {
      // expect availability <op> <percent>: share of offered packets served.
      if (cmd.tokens.size() < 4) return fail(cmd, "expected <op> <percent>");
      auto want = parse_double(cmd.tokens[3]);
      if (!want) return fail(cmd, "bad percent");
      const std::uint64_t offered = result_.offered;
      if (offered == 0) return fail(cmd, "'expect availability' before any send/traffic");
      const double actual = 100.0 * static_cast<double>(result_.served) / offered;
      check.passed = compare(actual, cmd.tokens[2], *want);
      std::ostringstream os;
      os << "actual " << actual << "% (" << result_.served << "/" << offered << ")";
      check.detail = os.str();
    } else {
      // numeric comparisons: expect <metric> [arg] <op> <n>
      std::size_t i = 2;
      std::uint64_t actual = 0;
      if (what == "delivered") {
        auto h = parse_uint(cmd.tokens.size() > 2 ? cmd.tokens[2] : "");
        if (!h || *h >= net_->hosts().size()) return fail(cmd, "bad host index");
        actual = net_->hosts()[*h].rx_packets;
        i = 3;
      } else if (what == "crashes") {
        actual = lego_ ? lego_->lego_stats().failstop_crashes
                       : active()->stats().controller_crashes;
      } else if (what == "byzantine") {
        if (!lego_) return fail(cmd, "'expect byzantine' needs legosdn");
        actual = lego_->lego_stats().byzantine_failures;
      } else if (what == "tickets") {
        if (!lego_) return fail(cmd, "'expect tickets' needs legosdn");
        actual = lego_->tickets().count();
      } else if (what == "recoveries") {
        if (!lego_) return fail(cmd, "'expect recoveries' needs legosdn");
        actual = lego_->lego_stats().recoveries;
      } else if (what == "ignored") {
        if (!lego_) return fail(cmd, "'expect ignored' needs legosdn");
        actual = lego_->lego_stats().events_ignored;
      } else if (what == "transformed") {
        if (!lego_) return fail(cmd, "'expect transformed' needs legosdn");
        actual = lego_->lego_stats().events_transformed;
      } else if (what == "failovers") {
        actual = replica_set_ ? replica_set_->failovers() : 0;
      } else if (what == "punts") {
        actual = net_->totals().punted;
      } else if (what == "resumed") {
        actual = net_->totals().resumed_delivered;
      } else if (what == "violations") {
        actual = invariant::InvariantChecker(*net_).check_basic().size();
      } else {
        return fail(cmd, "unknown metric '" + what + "'");
      }
      if (cmd.tokens.size() < i + 2) return fail(cmd, "expected <op> <n>");
      auto n = parse_uint(cmd.tokens[i + 1]);
      if (!n) return fail(cmd, "bad number");
      check.passed = compare(actual, cmd.tokens[i], *n);
      check.detail = "actual " + std::to_string(actual);
    }
    log_ << (check.passed ? "PASS " : "FAIL ") << cmd.raw;
    if (!check.passed) log_ << "   (" << check.detail << ")";
    log_ << "\n";
    result_.checks.push_back(std::move(check));
    return true;
  }

  std::unique_ptr<netsim::Network> net_;
  struct PendingApp {
    std::function<ctl::AppPtr()> make;
    std::string name;
  };
  std::vector<PendingApp> pending_;
  // Declared before the controllers so destruction drains their dispatch
  // lanes while the bridge (and its server) is still alive.
  std::unique_ptr<southbound::SouthboundBridge> bridge_;
  std::unique_ptr<ctl::Controller> controller_;     ///< single-controller mode
  std::unique_ptr<lego::ReplicaSet> replica_set_;   ///< replicas >= 2
  lego::LegoController* lego_ = nullptr; ///< active lego controller, if any
  lego::LegoConfig cfg_;
  std::string policy_text_;
  bool lego_mode_ = true;
  bool wire_mode_ = false;
  std::size_t replicas_n_ = 1;
  /// Scheduled churn events keyed by absolute sim time (ns); multimap keeps
  /// same-second events in script order.
  std::multimap<std::int64_t, Scenario::Command> schedule_;
  std::uint64_t traffic_seq_ = 0;
  RunResult result_;
  std::ostringstream log_;
};

RunResult Scenario::run() const { return Interpreter{}.execute(commands_); }

} // namespace legosdn::scenario
