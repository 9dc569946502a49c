// VeriFlow-lite network invariant checker.
//
// The paper detects byzantine SDN-App failures ("the output of the SDN-App
// violates network invariants, which can be detected using policy checkers
// [VeriFlow]"). This module provides that policy checker: it symbolically
// traces representative packets through the *installed* flow rules (without
// touching counters) and reports forwarding loops, black-holes, and
// reachability violations. A TableView substitutes other tables for some
// switches: LegoSDN verifies an open transaction against NetLog's shadow
// tables, which hold the transaction's writes before (delay-buffer) or
// regardless of (a lagging southbound) their arrival at the switch.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "netsim/network.hpp"

namespace legosdn::invariant {

enum class InvariantKind {
  kNoLoops,      ///< no forwarding cycle for any installed rule
  kNoBlackHoles, ///< no rule forwards into a down/dangling port
  kReachability, ///< configured host pairs must remain deliverable
};

const char* to_string(InvariantKind k);

struct Violation {
  InvariantKind kind{};
  DatapathId where{};   ///< switch where the problem manifests
  std::string detail;

  std::string to_string() const;
};

/// Why a symbolic trace terminated.
enum class TraceOutcome {
  kDelivered, ///< reached a host
  kMiss,      ///< table miss (would punt to controller — not a violation)
  kDropRule,  ///< matched an explicit drop rule
  kDeadEnd,   ///< forwarded into a down link / dangling port (black-hole)
  kLooped,    ///< revisited a (switch, port) with the same header
};

struct TraceResult {
  /// Worst fate among all copies (floods fan out): loop > dead-end >
  /// drop > miss > delivered.
  TraceOutcome outcome = TraceOutcome::kMiss;
  /// Did *any* copy reach a host that accepts it? (Reachability cares about
  /// this, not about sibling copies dying on empty ports.)
  bool delivered_any = false;
  std::vector<PortLocator> path;
  DatapathId last_switch{};
};

struct ReachabilitySpec {
  MacAddress src{};
  MacAddress dst{};
};

struct InvariantConfig {
  bool check_loops = true;
  bool check_black_holes = true;
  std::vector<ReachabilitySpec> must_reach;
};

/// A must_reach pair whose trace fails. Cheap to produce and compare: the
/// detail string is only built (reachability_violation) for a break that is
/// actually reported.
struct ReachabilityBreak {
  std::size_t spec = 0;        ///< index into InvariantConfig::must_reach
  bool unknown_host = false;   ///< the spec names a host the network lacks
  TraceOutcome outcome = TraceOutcome::kMiss; ///< loop, dead-end or drop
  DatapathId where{};
};

/// Which flow table a trace consults at each switch: the resolver returns
/// the table to read for a dpid, or nullptr for the switch's live table. An
/// empty view reads live tables everywhere. The verifier of an open NetLog
/// transaction passes NetLog's shadows for the switches it wrote — the
/// would-be state — so nothing is copied per transaction.
using TableView = std::function<const netsim::FlowTable*(DatapathId)>;

class InvariantChecker {
public:
  explicit InvariantChecker(const netsim::Network& net) : net_(net) {}

  /// Symbolically forward a header from a switch port using peek() lookups.
  TraceResult trace(PortLocator ingress, const of::PacketHeader& hdr,
                    const TableView& view = {}) const;

  /// Run all configured checks over the currently installed rules.
  std::vector<Violation> check(const InvariantConfig& cfg) const;

  /// Incremental variant (the VeriFlow idea): only rules installed at the
  /// given switches are used as trace *origins* — their traces still walk the
  /// whole network, so loops and black-holes that involve other switches are
  /// found — plus the configured reachability pairs. This is what makes
  /// per-transaction verification affordable: a transaction only needs its
  /// own rules re-verified, not the entire network's.
  std::vector<Violation> check_scoped(const InvariantConfig& cfg,
                                      std::span<const DatapathId> dpids) const;

  /// Fully incremental check over exactly the rules a transaction wrote
  /// (adds/modifies). Sound for new violations: a loop introduced by the
  /// transaction must pass through one of its rules, so tracing from those
  /// rules finds it; a new black-hole can only be one of those rules; and
  /// reachability (which old rules can lose through shadowing) is covered by
  /// the caller's global reachability diff. Pre-existing violations are
  /// never attributed. The mods must be visible through `view`: the default
  /// (live tables) suits mods already installed; a transaction still in
  /// flight passes NetLog's view of it. Re-entrant: all state is per call.
  std::vector<Violation> check_flow_mods(const InvariantConfig& cfg,
                                         std::span<const of::FlowMod> mods,
                                         const TableView& view = {}) const;

  /// Reachability-only check.
  std::vector<Violation> check_reachability_only(const InvariantConfig& cfg) const;

  /// The must_reach pairs that are broken, in ascending spec order — the
  /// structured form a per-transaction baseline diffs by index.
  std::vector<ReachabilityBreak> broken_reachability(const InvariantConfig& cfg,
                                                     const TableView& view = {}) const;

  /// The reportable form of one break.
  static Violation reachability_violation(const InvariantConfig& cfg,
                                          const ReachabilityBreak& b);

  /// Convenience: loops + black-holes with no reachability specs.
  std::vector<Violation> check_basic() const { return check(InvariantConfig{}); }

private:
  void check_rules(const InvariantConfig& cfg,
                   std::span<const DatapathId> scope, // empty = all switches
                   std::vector<Violation>& out) const;
  void check_entry(const InvariantConfig& cfg, DatapathId dpid,
                   const netsim::SimSwitch& sw, const netsim::FlowEntry& e,
                   const TableView& view, std::vector<Violation>& out) const;
  void check_reachability(const InvariantConfig& cfg,
                          std::vector<Violation>& out) const;

  /// Flow table to consult for a switch: the view's table when it names one,
  /// otherwise the switch's live table.
  static const netsim::FlowTable& table_of(const TableView& view, DatapathId dpid,
                                           const netsim::SimSwitch& sw);

  const netsim::Network& net_;
  static constexpr std::size_t kHopLimit = 128;
};

/// Synthesize a concrete header that a match would accept (wildcarded fields
/// get canonical filler values). Exposed for tests.
of::PacketHeader representative_header(const of::Match& m);

} // namespace legosdn::invariant
