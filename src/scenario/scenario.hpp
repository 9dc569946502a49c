// Scenario DSL: drive a full LegoSDN (or monolithic) deployment from a
// small text script — topology, apps, fault wrappers, traffic, failures,
// and assertions — without writing C++.
//
//   # crash containment in six lines
//   topology linear 3 1
//   app learning-switch
//   wrap crashy tp_dst=666
//   start
//   send 0 2 80
//   send 2 0 80
//   send 0 2 666
//   expect controller up
//   expect crashes == 1
//   send 0 2 80
//   expect delivered 2 >= 2
//
// Grammar (one command per line, '#' comments):
//   topology (linear|ring|star) <n> [hosts_per_switch]
//   topology fat_tree <k>          # k even and >= 2
//   topology random <n> [hosts_per_switch] [extra=<links>] [seed=<s>]
//   architecture (legosdn|monolithic)
//   backend (inprocess|process)
//   southbound (inprocess|wire)   # wire: real loopback TCP + OF 1.0 framing
//   replicas <n>                   # legosdn only: 1 leader + n-1 warm
//                                  # followers (serial dispatch enforced)
//   netlog (undo-log|delay-buffer)
//   checkpoint every <k>
//   limits max_messages=<n> max_faults=<n>
//   policy <rule...>              # appended to the policy program
//   app (hub|flooder|learning-switch [idle=<secs>]|router|discovery
//        |firewall [deny_tp=<p>]|load-balancer)
//   wrap crashy [tp_dst=<p>] [event=<type>] [skip=<n>] [transient] [prob=<p>]
//                                  # prob: seeded chance (0 < p <= 1) that a
//                                  # matching event fires the bug
//   wrap byzantine (blackhole|loop|dropall) [tp_dst=<p>] [event=<type>]
//   wrap chatty <burst> [tp_dst=<p>]
//   start
//   send <src_host> <dst_host> [tp_dst]
//   traffic (uniform|stride|incast|hotspot) <n_flows> [repeats] [seed=<s>]
//   traffic pairs <sweeps>         # every ordered host pair, <sweeps> times
//   switch (down|up) <dpid>
//   link (down|up) <dpid> <port>
//   at <t> (switch|link|send|traffic|leader) ...
//                                  # schedule for absolute sim-second <t>;
//                                  # fired, in time order, by 'advance'
//   advance <seconds>              # advances time, firing due 'at' events
//   upgrade                        # controller restart (legosdn keeps state)
//   leader crash                   # unplanned leader crash: senior follower
//                                  # reconciles in-flight txns and promotes
//   repeat <n>                     # 1 <= n <= 10000; the lines up to 'end'
//   ...                            # run n times (unrolled at parse time, line
//   end                            # numbers kept; blocks do not nest)
//   expect controller (up|down)
//   expect app <index> (alive|down)
//   expect (reachable|unreachable) <src_host> <dst_host>
//                                  # symbolic trace over installed rules
//   expect (delivered <host>|crashes|byzantine|tickets|recoveries|ignored
//           |transformed|punts|violations|resumed|failovers)
//          (==|!=|>=|<=|>|<) <n>
//   expect availability (==|!=|>=|<=|>|<) <percent>
//                                  # share of packets offered by send/traffic
//                                  # since start whose destination host
//                                  # received them (final probes excluded)
//
// State keywords are strict: anything other than up/down (alive/down for
// apps) is a line-numbered error, never silently treated as "down".
//
// parse() reports syntax errors with line numbers; run() executes and
// returns per-assertion outcomes plus a final-state capture (controller
// liveness, invariant violations, dataplane reachability matrix) that the
// differential fuzzer compares across architectures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "legosdn/lego_controller.hpp"

namespace legosdn::scenario {

struct CheckResult {
  std::size_t line = 0;
  std::string text;    ///< the expect command as written
  bool passed = false;
  std::string detail;  ///< actual value rendered for failures
};

struct RunResult {
  bool ok = false;                 ///< all assertions passed, no runtime error
  std::string error;               ///< runtime error (bad host index, ...)
  std::vector<CheckResult> checks;
  std::string transcript;          ///< human-readable execution log

  // Final-state capture, filled once the script reached 'start'. The
  // reachability matrix is measured by injecting one probe per ordered host
  // pair through the live dataplane (controller included) after the script
  // body ran; violations are InvariantChecker::check_basic() over the rules
  // installed at that point. Two runs of behaviorally equivalent deployments
  // must agree on all three — that is the differential fuzzer's oracle.
  bool started = false;
  bool controller_down = false;
  std::vector<std::string> violations;
  std::size_t n_hosts = 0;
  std::vector<std::uint8_t> reachability; ///< n_hosts * n_hosts, row-major

  // NetLog transaction outcome (legosdn only; zero for monolithic) and the
  // per-switch FlowTable::logical_digest() values in switch-id order, both
  // captured before the reachability probes. The wire southbound must
  // reproduce these byte-for-byte against the in-process path.
  std::uint64_t netlog_committed = 0;
  std::uint64_t netlog_rolled_back = 0;
  std::vector<std::uint64_t> switch_digests;

  // Packets the script offered with 'send'/'traffic' and how many of them
  // reached their destination host ('expect availability'); the final-state
  // probes are not counted.
  std::uint64_t offered = 0;
  std::uint64_t served = 0;

  bool reachable(std::size_t src, std::size_t dst) const {
    return reachability[src * n_hosts + dst] != 0;
  }

  std::size_t failed_checks() const {
    std::size_t n = 0;
    for (const auto& c : checks)
      if (!c.passed) ++n;
    return n;
  }
};

class Scenario {
public:
  /// Parse a script. Syntax errors carry line numbers.
  static Result<Scenario> parse(std::string_view text);

  /// Execute. Each call builds a fresh network/controller.
  RunResult run() const;

private:
  struct Command {
    std::size_t line = 0;
    std::vector<std::string> tokens;
    std::string raw;
  };

  std::vector<Command> commands_;
  friend class Interpreter;
};

} // namespace legosdn::scenario
